// Package kbinomial implements the NI-based multicast scheme: a k-binomial
// tree forwarded at the network interfaces with the First-Packet-First-
// Served (FPFS) discipline (paper §3.2.1, after Kesavan & Panda, ICPP'97).
//
// A k-binomial tree is a binomial tree truncated to at most k children per
// vertex: a vertex that obtains the message keeps forwarding it to new
// children on consecutive sends, up to k of them. The smart NI forwards
// each arriving packet to all children before the next packet (FPFS), so
// the per-hop cost is NI-level, not host-level, and packets pipeline down
// the tree. The optimal k balances tree depth (fewer hops) against the
// serial replication cost per vertex, and depends on the multicast set
// size and the packet count — both captured by the analytic completion
// model below.
package kbinomial

import (
	"math"

	"mcastsim/internal/event"
	"mcastsim/internal/mcast"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Scheme is the NI-based k-binomial multicast.
type Scheme struct {
	// FixedK forces the fanout when > 0; 0 (the default) selects the
	// modeled optimum per multicast.
	FixedK int
}

// New returns the scheme with automatic k selection.
func New() Scheme { return Scheme{} }

// Name implements mcast.Scheme.
func (Scheme) Name() string { return "ni-kbinomial" }

// Plan implements mcast.Scheme.
func (s Scheme) Plan(rt *updown.Routing, p sim.Params, src topology.NodeID, dests []topology.NodeID, msgFlits int) (*sim.Plan, error) {
	if err := mcast.CheckArgs(rt, src, dests); err != nil {
		return nil, err
	}
	k := s.Fanout(rt, p, len(dests), msgFlits)
	ordered := mcast.ClusterBySwitch(rt, src, dests)
	tree := make(map[topology.NodeID][]topology.NodeID)
	build(append([]topology.NodeID{src}, ordered...), k, tree)
	return &sim.Plan{
		Source: src,
		Dests:  dests,
		NITree: tree,
	}, nil
}

// Coverage returns the number of nodes a k-binomial tree reaches within d
// forwarding steps: N(d) = 1 + sum_{i=1..min(k,d)} N(d-i) (a vertex sends
// to its i-th child in its i-th step after receiving).
func Coverage(k, d int) int {
	_, n := walk(k, d, math.MaxInt)
	return n
}

// Depth returns the minimal number of steps a k-binomial tree needs to
// cover m+1 nodes (source plus m destinations).
func Depth(k, m int) int {
	d, _ := walk(k, math.MaxInt, m+1)
	return d
}

// coverLimit clamps N to avoid overflow for silly depths.
const coverLimit = 1 << 30

// walk steps the Coverage recurrence through t = 0, 1, ... and returns
// the first t with t == d or N(t) >= want, and N(t) clamped to
// coverLimit. N doubles in every step up to k, so it passes coverLimit
// by t = 31 at any k: a window of 32 values holds every unclamped N(t-k)
// the recurrence still subtracts, and once N is clamped it stays so.
func walk(k, d, want int) (int, int) {
	if k < 1 {
		panic("kbinomial: k < 1")
	}
	if d < 0 {
		panic("kbinomial: negative depth")
	}
	var hist [32]int // N(t) at t%32
	sum := 0         // N(t-1) + ... + N(t-min(k,t))
	for t := 0; ; t++ {
		n := min(1+sum, coverLimit)
		if t == d || n >= want {
			return t, n
		}
		if n == coverLimit {
			return d, n // N(d) is clamped too
		}
		hist[t%len(hist)] = n
		sum += n
		if t >= k {
			sum -= hist[(t-k)%len(hist)]
		}
	}
}

// Fanout returns the fanout Plan uses for m destinations: FixedK when it
// is set, otherwise OptimalK with the system's unicast header (the NI
// forwards unicast replicas, so the wire length is header + payload).
func (s Scheme) Fanout(rt *updown.Routing, p sim.Params, m, msgFlits int) int {
	if s.FixedK > 0 {
		return s.FixedK
	}
	return OptimalK(p, m, msgFlits, sim.UnicastHeaderFlits(rt.Topo.NumNodes, rt.Topo.NumSwitches))
}

// OptimalK picks the fanout minimizing the modeled FPFS completion time
// for m destinations and a msgFlits-flit message of headerFlits-flit
// worms under parameters p.
//
// Model: a smart NI charges one receive and one send processing step per
// packet (replication setup covers all children); replicas then serialize
// on the injection line at wire length L each. The first child of a node
// thus lags its parent by one stage s = o_ni,r + o_ni,s + L + h, later
// children by an extra L each, and P packets drain through the widest
// (k·L) pipeline stage:
//
//	T(k) = depth(k)·s + (k-1)·L + (P-1)·max(k·L, o_ni,r+o_ni,s)
//
// Larger k shortens the tree but widens every pipeline stage, which is why
// the optimum shrinks as messages grow (paper §4.2.3).
func OptimalK(p sim.Params, m, msgFlits, headerFlits int) int {
	packets := p.Packets(msgFlits)
	if packets < 1 {
		packets = 1
	}
	payload := msgFlits
	if payload > p.PacketFlits {
		payload = p.PacketFlits
	}
	wire := event.Time(headerFlits + payload)
	h := p.LinkDelay + 4*(p.RoutingDelay+p.CrossbarDelay+p.LinkDelay) // ~typical path
	stage := p.ONIRecv + p.ONISend + wire + h
	bestK, bestT := 1, event.Time(1)<<62
	maxK := m
	if maxK > 16 {
		maxK = 16
	}
	for k := 1; k <= maxK; k++ {
		d := event.Time(Depth(k, m))
		pipe := event.Time(k) * wire
		if proc := p.ONIRecv + p.ONISend; proc > pipe {
			pipe = proc
		}
		t := d*stage + event.Time(k-1)*wire + event.Time(packets-1)*pipe
		if t < bestT {
			bestK, bestT = k, t
		}
	}
	return bestK
}

// build assigns children subtrees over list (list[0] is the subtree root)
// following the k-binomial size recurrence: the i-th child receives a
// subtree sized for the depth remaining after i serial sends. Contiguous
// blocks of the switch-clustered order keep subtrees topologically local.
func build(list []topology.NodeID, k int, tree map[topology.NodeID][]topology.NodeID) {
	root := list[0]
	rest := list[1:]
	d := Depth(k, len(rest))
	for i := 1; len(rest) > 0 && i <= k && i <= d; i++ {
		size := Coverage(k, d-i)
		if size > len(rest) {
			size = len(rest)
		}
		child := rest[:size]
		rest = rest[size:]
		tree[root] = append(tree[root], child[0])
		build(child, k, tree)
	}
	if len(rest) > 0 {
		// The recurrence guarantees capacity; leftovers indicate a bug.
		panic("kbinomial: tree construction failed to place all nodes")
	}
}
