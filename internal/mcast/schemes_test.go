package mcast_test

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

func allSchemes() []mcast.Scheme {
	return []mcast.Scheme{binomial.New(), kbinomial.New(), treeworm.New(), pathworm.New()}
}

func routedFamily(t testing.TB, cfg topology.Config, count int, seed uint64) []*updown.Routing {
	t.Helper()
	topos, err := topology.GenerateFamily(cfg, count, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*updown.Routing, len(topos))
	for i, topo := range topos {
		rt, err := updown.New(topo)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rt
	}
	return out
}

func randomSet(r *rng.Source, numNodes, degree int) (topology.NodeID, []topology.NodeID) {
	picks := r.Sample(numNodes, degree+1)
	src := topology.NodeID(picks[0])
	dests := make([]topology.NodeID, 0, degree)
	for _, v := range picks[1:] {
		dests = append(dests, topology.NodeID(v))
	}
	return src, dests
}

// TestAllSchemesEndToEnd runs every scheme on random topologies and random
// destination sets through the full simulator; the plan validator's exact-
// coverage rules plus the simulator's legality panics and conservation
// checks make this the central correctness property of the library.
func TestAllSchemesEndToEnd(t *testing.T) {
	cfgs := []topology.Config{
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: 0}, // pure tree topology
	}
	p := sim.DefaultParams()
	for ci, cfg := range cfgs {
		for ri, rt := range routedFamily(t, cfg, 4, 1000+uint64(ci)) {
			r := rng.New(uint64(ci*100 + ri))
			for trial := 0; trial < 6; trial++ {
				degree := 1 + r.Intn(cfg.Nodes-2)
				src, dests := randomSet(r, cfg.Nodes, degree)
				for _, sch := range allSchemes() {
					plan, err := sch.Plan(rt, p, src, dests, 128)
					if err != nil {
						t.Fatalf("%s cfg%d topo%d trial%d: Plan: %v", sch.Name(), ci, ri, trial, err)
					}
					n, err := sim.New(rt, p, uint64(trial))
					if err != nil {
						t.Fatal(err)
					}
					m, err := n.RunSingle(plan, 128)
					if err != nil {
						t.Fatalf("%s cfg%d topo%d trial%d: %v", sch.Name(), ci, ri, trial, err)
					}
					if len(m.DoneAt) != len(dests) {
						t.Fatalf("%s: delivered %d/%d", sch.Name(), len(m.DoneAt), len(dests))
					}
					if err := n.CheckConservation(); err != nil {
						t.Fatalf("%s: %v", sch.Name(), err)
					}
				}
			}
		}
	}
}

func TestAllSchemesMultiPacket(t *testing.T) {
	p := sim.DefaultParams()
	for _, rt := range routedFamily(t, topology.DefaultConfig(), 2, 7) {
		r := rng.New(3)
		src, dests := randomSet(r, rt.Topo.NumNodes, 8)
		for _, flits := range []int{1, 64, 128, 129, 512, 1024} {
			for _, sch := range allSchemes() {
				plan, err := sch.Plan(rt, p, src, dests, flits)
				if err != nil {
					t.Fatal(err)
				}
				n, _ := sim.New(rt, p, 1)
				m, err := n.RunSingle(plan, flits)
				if err != nil {
					t.Fatalf("%s flits=%d: %v", sch.Name(), flits, err)
				}
				if len(m.DoneAt) != 8 {
					t.Fatalf("%s flits=%d: incomplete", sch.Name(), flits)
				}
			}
		}
	}
}

func TestSchemesRejectBadArgs(t *testing.T) {
	rt := routedFamily(t, topology.DefaultConfig(), 1, 9)[0]
	p := sim.DefaultParams()
	for _, sch := range allSchemes() {
		if _, err := sch.Plan(rt, p, 0, nil, 128); err == nil {
			t.Errorf("%s accepted empty destination set", sch.Name())
		}
		if _, err := sch.Plan(rt, p, 0, []topology.NodeID{0}, 128); err == nil {
			t.Errorf("%s accepted source in destinations", sch.Name())
		}
		if _, err := sch.Plan(rt, p, 0, []topology.NodeID{1, 1}, 128); err == nil {
			t.Errorf("%s accepted duplicate destination", sch.Name())
		}
		if _, err := sch.Plan(rt, p, 99, []topology.NodeID{1}, 128); err == nil {
			t.Errorf("%s accepted out-of-range source", sch.Name())
		}
	}
}

func TestSchemeNamesStable(t *testing.T) {
	want := map[string]bool{"sw-binomial": true, "ni-kbinomial": true, "sw-tree": true, "sw-path": true}
	for _, sch := range allSchemes() {
		if !want[sch.Name()] {
			t.Errorf("unexpected scheme name %q", sch.Name())
		}
	}
}

func TestClusterBySwitchGroups(t *testing.T) {
	rt := routedFamily(t, topology.DefaultConfig(), 1, 11)[0]
	r := rng.New(5)
	src, dests := randomSet(r, rt.Topo.NumNodes, 20)
	ordered := mcast.ClusterBySwitch(rt, src, dests)
	if len(ordered) != len(dests) {
		t.Fatalf("ordering changed cardinality")
	}
	// Same multiset.
	seen := map[topology.NodeID]int{}
	for _, d := range dests {
		seen[d]++
	}
	for _, d := range ordered {
		seen[d]--
	}
	for d, c := range seen {
		if c != 0 {
			t.Fatalf("node %d count %d after ordering", d, c)
		}
	}
	// Groups contiguous: once we leave a switch we never return.
	visited := map[topology.SwitchID]bool{}
	var cur topology.SwitchID = -1
	for _, d := range ordered {
		s := rt.Topo.NodeSwitch[d]
		if s != cur {
			if visited[s] {
				t.Fatalf("switch %d appears in two separate runs", s)
			}
			visited[s] = true
			cur = s
		}
	}
}

// BenchmarkSimCore measures raw simulator throughput: one isolated
// 16-way, 128-flit multicast per iteration on a fresh network, under
// each scheme (thousands of flit events each).
func BenchmarkSimCore(b *testing.B) {
	rt := routedFamily(b, topology.DefaultConfig(), 1, 1)[0]
	p := sim.DefaultParams()
	dests := make([]topology.NodeID, 16)
	for i, v := range rng.New(1).Sample(31, 16) {
		dests[i] = topology.NodeID(v + 1)
	}
	for _, sch := range allSchemes() {
		plan, err := sch.Plan(rt, p, 0, dests, 128)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sch.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := sim.New(rt, p, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := n.RunSingle(plan, 128); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// planSink keeps the benchmarked plans live.
var planSink *sim.Plan

// BenchmarkPathCover measures the MDP-LG planner alone: one 32-way plan
// per iteration on a 128-switch, 256-host irregular network, the size of
// perfbench's churn-fault network. Plans draw fresh destination sets from
// a fixed sequence, so the route table's distance rows fill during the
// first iterations and then stay warm.
func BenchmarkPathCover(b *testing.B) {
	cfg := topology.Config{Switches: 128, PortsPerSwitch: 8, Nodes: 256, ExtraLinksPerSwitch: -1}
	rt := routedFamily(b, cfg, 1, 1)[0]
	p := sim.DefaultParams()
	const sets = 64
	srcs := make([]topology.NodeID, sets)
	dests := make([][]topology.NodeID, sets)
	r := rng.New(1)
	for i := range srcs {
		srcs[i], dests[i] = randomSet(r, cfg.Nodes, 32)
	}
	sch := pathworm.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := sch.Plan(rt, p, srcs[i%sets], dests[i%sets], 128)
		if err != nil {
			b.Fatal(err)
		}
		planSink = plan
	}
}
