package sim

import (
	"fmt"
	"strings"
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// The sparse-representation determinism contract (DESIGN.md §18): a
// network planned on run-coded destination sets must produce BYTE-
// IDENTICAL traces, latencies and stats to the same network planned on
// flat bit strings. Every dset method is a pure membership operation, so
// the contract holds by construction; these tests pin it against
// regressions the same way the golden traces pin the engine itself.

// repTraceRun executes a fixed multicast workload under the given
// representation and returns the full formatted trace plus final stats.
func repTraceRun(t *testing.T, rep SetRep, coding DestCoding, early bool) (string, Stats) {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.SetRep = rep
	p.DestCoding = coding
	p.EarlyTreeBranch = early
	var sb strings.Builder
	n, err := New(rt, p, 11, WithTrace(func(ev TraceEvent) {
		fmt.Fprintf(&sb, "%d %v w%d m%d p%d s%d/%d n%d\n",
			ev.At, ev.Kind, ev.Worm, ev.Msg, ev.Pkt, ev.Switch, ev.Port, ev.Node)
	}))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1111)
	for i := 0; i < 30; i++ {
		if _, err := n.Send(randomTreePlan(r, topo.NumNodes), 128, event.Time(r.Intn(1500)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return sb.String(), n.Stats()
}

// TestSparseFlatTraceIdentical: the same workload under RepFlat and
// RepSparse produces byte-identical traces for every coding × ablation
// combination.
func TestSparseFlatTraceIdentical(t *testing.T) {
	for _, coding := range []DestCoding{HeaderFlat, HeaderIval} {
		for _, early := range []bool{false, true} {
			name := fmt.Sprintf("coding=%v/early=%v", coding, early)
			t.Run(name, func(t *testing.T) {
				flat, fs := repTraceRun(t, RepFlat, coding, early)
				sparse, ss := repTraceRun(t, RepSparse, coding, early)
				if flat != sparse {
					t.Fatalf("trace diverged between representations (flat %d bytes, sparse %d bytes)",
						len(flat), len(sparse))
				}
				if fs != ss {
					t.Fatalf("stats diverged: flat %+v sparse %+v", fs, ss)
				}
				if flat == "" {
					t.Fatal("empty trace: workload did not run")
				}
			})
		}
	}
}

// TestSparseGroupChurnIdentical: the dynamic-group path (pooled
// snapshots, per-node cache invalidation, stale/missed classification)
// is representation-blind too.
func TestSparseGroupChurnIdentical(t *testing.T) {
	run := func(rep SetRep) (string, Stats) {
		topo, err := topology.Generate(topology.DefaultConfig(), rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := updown.New(topo)
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.SetRep = rep
		var sb strings.Builder
		n, err := New(rt, p, 13, WithTrace(func(ev TraceEvent) {
			fmt.Fprintf(&sb, "%d %v w%d m%d p%d n%d\n", ev.At, ev.Kind, ev.Worm, ev.Msg, ev.Pkt, ev.Node)
		}))
		if err != nil {
			t.Fatal(err)
		}
		dests := []topology.NodeID{2, 5, 9, 12}
		g, err := n.NewGroup("g", dests)
		if err != nil {
			t.Fatal(err)
		}
		err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
			{At: 50, Group: g.ID(), Node: 7, Kind: MemberJoin},
			{At: 400, Group: g.ID(), Node: 5, Kind: MemberLeave},
			{At: 900, Group: g.ID(), Node: 5, Kind: MemberJoin},
		}})
		if err != nil {
			t.Fatal(err)
		}
		plan := &Plan{
			Source:    0,
			Dests:     dests,
			HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormTree, DestSet: dests}}},
		}
		for _, at := range []event.Time{0, 300, 800} {
			if _, err := n.SendToGroup(g, plan, 256, at, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(0); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "stale=%d missed=%d invals=%d\n", g.Stale(), g.Missed(), n.cache.groupInvals)
		return sb.String(), n.Stats()
	}
	flat, fs := run(RepFlat)
	sparse, ss := run(RepSparse)
	if flat != sparse {
		t.Fatalf("churn trace diverged:\nflat:\n%s\nsparse:\n%s", flat, sparse)
	}
	if fs != ss {
		t.Fatalf("churn stats diverged: flat %+v sparse %+v", fs, ss)
	}
}

// TestSparseAutoSelection pins the RepAuto cutover and the forced modes.
func TestSparseAutoSelection(t *testing.T) {
	n := randomNet(t, topology.DefaultConfig(), DefaultParams(), 3)
	if n.sparse {
		t.Fatal("RepAuto selected sparse below the universe threshold")
	}
	p := DefaultParams()
	p.SetRep = RepSparse
	n = randomNet(t, topology.DefaultConfig(), p, 3)
	if !n.sparse {
		t.Fatal("RepSparse did not force the sparse representation")
	}
	if got := n.getDset(); got.runs == nil || got.bits != nil {
		t.Fatalf("sparse pool handed out %+v", got)
	}
	p.SetRep = RepFlat
	n = randomNet(t, topology.DefaultConfig(), p, 3)
	if n.sparse {
		t.Fatal("RepFlat did not force the flat representation")
	}
}

// TestSparseLocalRange pins the hostLo/hostHi precompute: contiguous
// attachments get ranges, irregular ones fall back to the probe, and the
// gate predicate matches the old Intersects(localNodes) on both.
func TestSparseLocalRange(t *testing.T) {
	n := randomNet(t, topology.DefaultConfig(), DefaultParams(), 19)
	topo := n.topo
	for s := 0; s < topo.NumSwitches; s++ {
		nodes := n.nodesAt[s]
		lo, hi := n.hostLo[s], n.hostHi[s]
		switch {
		case len(nodes) == 0:
			if lo != 0 || hi != -1 {
				t.Fatalf("switch %d: hostless sentinel wrong: [%d,%d]", s, lo, hi)
			}
		case int(nodes[len(nodes)-1])-int(nodes[0])+1 == len(nodes):
			if int(lo) != int(nodes[0]) || int(hi) != int(nodes[len(nodes)-1]) {
				t.Fatalf("switch %d: contiguous range [%d,%d], nodes %v", s, lo, hi, nodes)
			}
		default:
			if lo != -1 {
				t.Fatalf("switch %d: irregular attachment not marked: [%d,%d]", s, lo, hi)
			}
		}
		// Predicate equivalence against a brute-force membership check.
		d := n.getDset()
		d.add(int(topo.NumNodes - 1))
		if len(nodes) > 0 {
			d.add(int(nodes[0]))
		}
		want := false
		for _, node := range nodes {
			if d.contains(int(node)) {
				want = true
			}
		}
		if got := n.localIntersects(d, topology.SwitchID(s)); got != want {
			t.Fatalf("switch %d: localIntersects=%v, brute force %v", s, got, want)
		}
		n.putDset(d)
	}
}
