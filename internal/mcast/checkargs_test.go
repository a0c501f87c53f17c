package mcast_test

import (
	"fmt"
	"testing"

	"mcastsim/internal/mcast"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// refCheckArgs is CheckArgs as first written, with a map of the
// destinations seen: the oracle for the map-free version.
func refCheckArgs(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID) error {
	n := rt.Topo.NumNodes
	if int(src) < 0 || int(src) >= n {
		return fmt.Errorf("mcast: source %d out of range", src)
	}
	if len(dests) == 0 {
		return fmt.Errorf("mcast: empty destination set")
	}
	seen := make(map[topology.NodeID]bool, len(dests))
	for _, d := range dests {
		if int(d) < 0 || int(d) >= n {
			return fmt.Errorf("mcast: destination %d out of range", d)
		}
		if d == src {
			return fmt.Errorf("mcast: source %d in destination set", d)
		}
		if seen[d] {
			return fmt.Errorf("mcast: duplicate destination %d", d)
		}
		seen[d] = true
	}
	return nil
}

// TestCheckArgsMatchesReference pins CheckArgs to the map-based check on
// random sets on both sides of its pairwise cut-off, each clean or with
// up to three faults (a duplicate, the source, a node out of range) at
// random positions: the same verdict, naming the same first fault.
func TestCheckArgsMatchesReference(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.Switches, cfg.Nodes = 64, 256
	rt := routedFamily(t, cfg, 1, 5)[0]
	r := rng.New(41)
	for trial := 0; trial < 2000; trial++ {
		m := 1 + r.Intn(150)
		picks := r.Sample(cfg.Nodes, m+1)
		src := topology.NodeID(picks[0])
		dests := make([]topology.NodeID, m)
		for i, v := range picks[1:] {
			dests[i] = topology.NodeID(v)
		}
		for f := r.Intn(4); f > 0; f-- {
			i := r.Intn(m)
			switch r.Intn(3) {
			case 0:
				dests[i] = dests[r.Intn(m)]
			case 1:
				dests[i] = src
			default:
				dests[i] = topology.NodeID(cfg.Nodes + r.Intn(3))
			}
		}
		got, want := mcast.CheckArgs(rt, src, dests), refCheckArgs(rt, src, dests)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d, %d destinations: CheckArgs says %v, the reference %v", trial, m, got, want)
		}
	}
}

// TestCheckArgsAllocatesNothing pins the check that every scheme's Plan
// runs first at zero allocations for sets up to the pairwise cut-off.
func TestCheckArgsAllocatesNothing(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.Switches, cfg.Nodes = 64, 256
	rt := routedFamily(t, cfg, 1, 5)[0]
	for _, m := range []int{1, 8, 16, 64} {
		src, dests := randomSet(rng.New(uint64(m)), cfg.Nodes, m)
		if err := mcast.CheckArgs(rt, src, dests); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = mcast.CheckArgs(rt, src, dests) }); got != 0 {
			t.Errorf("CheckArgs on %d destinations allocates %v objects, want 0", m, got)
		}
	}
}
