package collective

import (
	"testing"

	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/binomial"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

func routed(t testing.TB, seed uint64) *updown.Routing {
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

func schemes() []mcast.Scheme {
	return []mcast.Scheme{binomial.New(), kbinomial.New(), treeworm.New(), pathworm.New()}
}

func cfg(sch mcast.Scheme) Config {
	return Config{Scheme: sch, Params: sim.DefaultParams(), Root: 0, Flits: 64, Seed: 1}
}

func TestBroadcastAllSchemes(t *testing.T) {
	rt := routed(t, 1)
	for _, sch := range schemes() {
		res, err := Broadcast(rt, cfg(sch))
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		if res.Latency <= 0 {
			t.Fatalf("%s: latency %d", sch.Name(), res.Latency)
		}
	}
}

func TestGatherCompletes(t *testing.T) {
	rt := routed(t, 2)
	res, err := Gather(rt, cfg(treeworm.New()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Fatalf("latency %d", res.Latency)
	}
	// 31 contributions, one message each.
	if res.Messages != 31 {
		t.Fatalf("messages %d, want 31", res.Messages)
	}
}

func TestGatherFasterThanFlat(t *testing.T) {
	// The combining tree must beat 31 direct unicasts serializing o_r at
	// the root (31 x 100 cycles of host receive alone).
	rt := routed(t, 3)
	res, err := Gather(rt, cfg(treeworm.New()))
	if err != nil {
		t.Fatal(err)
	}
	flatLowerBound := 31 * sim.DefaultParams().OHostRecv
	if res.Latency >= flatLowerBound {
		t.Fatalf("combining gather (%d) not faster than the flat-gather bound (%d)", res.Latency, flatLowerBound)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// Barrier = gather + broadcast: it must cost more than either alone,
	// and the tree-worm release must beat the binomial release.
	rt := routed(t, 4)
	g, err := Gather(rt, cfg(treeworm.New()))
	if err != nil {
		t.Fatal(err)
	}
	bTree, err := Barrier(rt, cfg(treeworm.New()))
	if err != nil {
		t.Fatal(err)
	}
	bBin, err := Barrier(rt, cfg(binomial.New()))
	if err != nil {
		t.Fatal(err)
	}
	if bTree.Latency <= g.Latency {
		t.Fatalf("barrier (%d) not slower than gather alone (%d)", bTree.Latency, g.Latency)
	}
	if bTree.Latency >= bBin.Latency {
		t.Fatalf("tree-release barrier (%d) not faster than binomial-release (%d)", bTree.Latency, bBin.Latency)
	}
}

func TestAllReduceMatchesBarrierShape(t *testing.T) {
	rt := routed(t, 5)
	c := cfg(treeworm.New())
	c.Flits = 256
	res, err := AllReduce(rt, c)
	if err != nil {
		t.Fatal(err)
	}
	small := cfg(treeworm.New())
	small.Flits = 8
	res2, err := AllReduce(rt, small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= res2.Latency {
		t.Fatal("payload size had no cost")
	}
}

func TestCombineTreeShape(t *testing.T) {
	rt := routed(t, 6)
	parent, children := combineTree(rt, 5)
	// Every node except the root has exactly one parent; the structure is
	// acyclic and rooted at 5.
	seen := 0
	for v := 0; v < rt.Topo.NumNodes; v++ {
		node := topology.NodeID(v)
		if node == 5 {
			if _, has := parent[node]; has {
				t.Fatal("root has a parent")
			}
			continue
		}
		p, has := parent[node]
		if !has {
			t.Fatalf("node %d orphaned", v)
		}
		// Walk to the root; must terminate.
		cur, steps := p, 0
		for cur != 5 {
			cur = parent[cur]
			steps++
			if steps > rt.Topo.NumNodes {
				t.Fatalf("cycle above node %d", v)
			}
		}
		seen++
	}
	if seen != rt.Topo.NumNodes-1 {
		t.Fatalf("tree covers %d nodes", seen)
	}
	total := 0
	for _, kids := range children {
		total += len(kids)
	}
	if total != rt.Topo.NumNodes-1 {
		t.Fatalf("children lists cover %d", total)
	}
}

func TestBadConfigRejected(t *testing.T) {
	rt := routed(t, 7)
	bad := cfg(treeworm.New())
	bad.Root = 99
	if _, err := Gather(rt, bad); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	bad = cfg(treeworm.New())
	bad.Flits = 0
	if _, err := Gather(rt, bad); err == nil {
		t.Fatal("zero payload accepted")
	}
}

func TestDifferentRoots(t *testing.T) {
	rt := routed(t, 8)
	for _, root := range []topology.NodeID{0, 7, 31} {
		c := cfg(treeworm.New())
		c.Root = root
		if _, err := Barrier(rt, c); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

// BenchmarkCollectives times one 16-flit barrier (gather, then the
// scheme's multicast release) per iteration and reports its simulated
// latency.
func BenchmarkCollectives(b *testing.B) {
	rt := routed(b, 1)
	for _, sch := range schemes() {
		b.Run("barrier/"+sch.Name(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				c := cfg(sch)
				c.Flits, c.Seed = 16, uint64(i)
				res, err := Barrier(rt, c)
				if err != nil {
					b.Fatal(err)
				}
				last = float64(res.Latency)
			}
			b.ReportMetric(last, "cycles/barrier")
		})
	}
}
