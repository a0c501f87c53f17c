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

// refCoverage is Coverage as first written, on an array of N(0..d): the
// oracle for the allocation-free recurrence.
func refCoverage(k, d int) int {
	n := make([]int, d+1)
	n[0] = 1
	const limit = 1 << 30
	for t := 1; t <= d; t++ {
		n[t] = 1
		for i := 1; i <= k && i <= t; i++ {
			n[t] += n[t-i]
			if n[t] > limit {
				n[t] = limit
			}
		}
	}
	return n[d]
}

// TestCoverageMatchesReference pins Coverage to the array recurrence
// across the clamp at 1<<30, and Depth to the first depth whose
// reference coverage holds m+1 nodes.
func TestCoverageMatchesReference(t *testing.T) {
	for k := 1; k <= 40; k++ {
		for d := 0; d <= 80; d++ {
			if got, want := Coverage(k, d), refCoverage(k, d); got != want {
				t.Fatalf("Coverage(%d, %d) = %d, the reference %d", k, d, got, want)
			}
		}
		for _, m := range []int{0, 1, 2, 7, 8, 15, 16, 63, 100, 1000} {
			want := 0
			for refCoverage(k, want) < m+1 {
				want++
			}
			if got := Depth(k, m); got != want {
				t.Fatalf("Depth(%d, %d) = %d, want %d", k, m, got, want)
			}
		}
	}
	// Up to the clamp, a wide tree doubles every step.
	for _, m := range []int{1 << 29, 1<<30 - 1} {
		if got := Depth(40, m); got != 30 {
			t.Fatalf("Depth(40, %d) = %d, want 30", m, got)
		}
	}
}

// TestFanoutAllocatesNothing pins the k choice, which runs once per
// planned multicast, at zero allocations.
func TestFanoutAllocatesNothing(t *testing.T) {
	p := sim.DefaultParams()
	for _, m := range []int{1, 16, 64, 511} {
		if got := testing.AllocsPerRun(20, func() {
			Coverage(3, m)
			Depth(1, m)
			OptimalK(p, m, 1024, 4)
		}); got != 0 {
			t.Errorf("Coverage, Depth and OptimalK for %d destinations allocate %v objects, want 0", m, got)
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
