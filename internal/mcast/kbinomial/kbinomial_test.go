package kbinomial

import (
	"testing"
	"testing/quick"

	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

func routed(t *testing.T, seed uint64) *updown.Routing {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestCoverageBoundaries(t *testing.T) {
	// k=1: a vertex sends to one child, the chain grows by one per step...
	// N(d) = d+1.
	for d := 0; d <= 10; d++ {
		if got := Coverage(1, d); got != d+1 {
			t.Fatalf("Coverage(1,%d) = %d, want %d", d, got, d+1)
		}
	}
	// Unbounded k reduces to the binomial tree: N(d) = 2^d.
	for d := 0; d <= 16; d++ {
		if got := Coverage(d+1, d); got != 1<<d {
			t.Fatalf("Coverage(inf,%d) = %d, want %d", d, got, 1<<d)
		}
	}
	// Fibonacci for k=2: 1,2,4,7,12,20 (N(d)=1+N(d-1)+N(d-2)).
	want := []int{1, 2, 4, 7, 12, 20, 33}
	for d, w := range want {
		if got := Coverage(2, d); got != w {
			t.Fatalf("Coverage(2,%d) = %d, want %d", d, got, w)
		}
	}
}

func TestCoverageMonotone(t *testing.T) {
	f := func(kRaw, dRaw uint8) bool {
		k := 1 + int(kRaw)%8
		d := int(dRaw) % 14
		return Coverage(k, d) <= Coverage(k, d+1) && Coverage(k, d) <= Coverage(k+1, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDepthInverse(t *testing.T) {
	for k := 1; k <= 6; k++ {
		for m := 1; m <= 200; m++ {
			d := Depth(k, m)
			if Coverage(k, d) < m+1 {
				t.Fatalf("Depth(%d,%d)=%d does not cover", k, m, d)
			}
			if d > 0 && Coverage(k, d-1) >= m+1 {
				t.Fatalf("Depth(%d,%d)=%d not minimal", k, m, d)
			}
		}
	}
}

func childCounts(tree map[topology.NodeID][]topology.NodeID) map[topology.NodeID]int {
	out := map[topology.NodeID]int{}
	for parent, kids := range tree {
		out[parent] = len(kids)
	}
	return out
}

func TestBuildRespectsK(t *testing.T) {
	rt := routed(t, 1)
	r := rng.New(9)
	for trial := 0; trial < 30; trial++ {
		m := 1 + r.Intn(31)
		k := 1 + r.Intn(6)
		picks := r.Sample(32, m+1)
		src := topology.NodeID(picks[0])
		dests := make([]topology.NodeID, m)
		for i, v := range picks[1:] {
			dests[i] = topology.NodeID(v)
		}
		plan, err := Scheme{FixedK: k}.Plan(rt, sim.DefaultParams(), src, dests, 128)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(32, rt.Topo.NumSwitches); err != nil {
			t.Fatalf("m=%d k=%d: %v", m, k, err)
		}
		for parent, c := range childCounts(plan.NITree) {
			if c > k {
				t.Fatalf("m=%d k=%d: node %d has %d children", m, k, parent, c)
			}
		}
	}
}

// treeDepthFPFS computes the forwarding-step depth of the NI tree: child i
// (0-based) of a node at step t receives at step t+i+1.
func treeDepthFPFS(tree map[topology.NodeID][]topology.NodeID, src topology.NodeID) int {
	var walk func(n topology.NodeID, at int) int
	walk = func(n topology.NodeID, at int) int {
		worst := at
		for i, kid := range tree[n] {
			if d := walk(kid, at+i+1); d > worst {
				worst = d
			}
		}
		return worst
	}
	return walk(src, 0)
}

func TestBuildDepthMatchesTheory(t *testing.T) {
	rt := routed(t, 2)
	r := rng.New(10)
	for trial := 0; trial < 30; trial++ {
		m := 1 + r.Intn(31)
		k := 1 + r.Intn(6)
		picks := r.Sample(32, m+1)
		src := topology.NodeID(picks[0])
		dests := make([]topology.NodeID, m)
		for i, v := range picks[1:] {
			dests[i] = topology.NodeID(v)
		}
		plan, err := Scheme{FixedK: k}.Plan(rt, sim.DefaultParams(), src, dests, 128)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := treeDepthFPFS(plan.NITree, src), Depth(k, m); got != want {
			t.Fatalf("m=%d k=%d: FPFS depth %d, want %d", m, k, got, want)
		}
	}
}

func TestOptimalKShrinksWithMessageLength(t *testing.T) {
	p := sim.DefaultParams()
	hdr := sim.UnicastHeaderFlits(32, 8)
	k1 := OptimalK(p, 15, 128, hdr)    // 1 packet
	k8 := OptimalK(p, 15, 128*16, hdr) // 16 packets
	if k8 > k1 {
		t.Fatalf("optimal k grew with message length: %d -> %d", k1, k8)
	}
	if k1 < 1 || k8 < 1 {
		t.Fatal("optimal k below 1")
	}
}

func TestOptimalKSingleDest(t *testing.T) {
	if k := OptimalK(sim.DefaultParams(), 1, 128, sim.UnicastHeaderFlits(32, 8)); k != 1 {
		t.Fatalf("OptimalK(m=1) = %d", k)
	}
}

func TestPlanIsNIMode(t *testing.T) {
	rt := routed(t, 3)
	plan, err := New().Plan(rt, sim.DefaultParams(), 0, []topology.NodeID{1, 2, 3}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NITree == nil || plan.HostSends != nil {
		t.Fatal("kbinomial must use the NI-tree mode")
	}
}
