package main

import "time"

// The benchmark's host is a shared 2-CPU virtual machine whose speed
// drifts: within ten minutes the same op ran up to 1.6x faster or slower,
// which put the quartile spread of ten raw ops/s readings at up to 0.23.
// A fixed reference kernel, timed in the same process during the timed
// phase, slows down with the host, so the end-to-end times are reported
// at the speed the host has when the kernel takes refNominal; that cut
// the spread to 0.04-0.07 on the same host. The kernel is the
// benchmark's own code, so a change to the simulator cannot move it.
const refNominal = 35 * time.Millisecond

// refEvery spaces the kernel runs of a timed phase.
const refEvery = time.Second

type refNode struct {
	next *refNode
	v    uint64
}

var refSink uint64

// refKernel runs a fixed mix of the simulator's kinds of work — a binary
// heap of event-like keys and a pointer-chased list of small allocations
// — and returns its host time in seconds.
func refKernel() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	h := make([]uint64, 0, 1<<15)
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if len(h) < 1<<15 || x&1 == 0 {
			h = append(h, x)
			for j := len(h) - 1; j > 0; {
				p := (j - 1) / 2
				if h[p] <= h[j] {
					break
				}
				h[p], h[j] = h[j], h[p]
				j = p
			}
			continue
		}
		refSink += h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for j := 0; ; {
			l := 2*j + 1
			if l >= n {
				break
			}
			if l+1 < n && h[l+1] < h[l] {
				l++
			}
			if h[j] <= h[l] {
				break
			}
			h[j], h[l] = h[l], h[j]
			j = l
		}
	}
	var head *refNode
	for i := 0; i < 200_000; i++ {
		head = &refNode{next: head, v: uint64(i)}
	}
	for n := head; n != nil; n = n.next {
		refSink += n.v
	}
	return time.Since(t0).Seconds()
}
