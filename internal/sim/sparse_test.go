package sim

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// The run-coded planner's determinism contract (DESIGN.md §18): every
// network plans on run-coded destination sets, and these workloads must
// reproduce byte for byte the traces and stats the flat bit-string
// planner produced before it was deleted. The recordings below were
// taken on that planner; a changed hash is a planning change, not noise.

// recorded is one workload's pinned outcome: the sha256 of its formatted
// trace and its final stats.
type recorded struct {
	trace string
	stats Stats
}

func checkRecorded(t *testing.T, trace string, stats Stats, want recorded) {
	t.Helper()
	if trace == "" {
		t.Fatal("empty trace: workload did not run")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); got != want.trace {
		t.Errorf("trace hash %s (%d bytes), recorded %s", got, len(trace), want.trace)
	}
	if stats != want.stats {
		t.Errorf("stats %+v, recorded %+v", stats, want.stats)
	}
}

// repTraceRun executes a fixed multicast workload and returns the full
// formatted trace plus final stats.
func repTraceRun(t *testing.T, coding DestCoding, early bool) (string, Stats) {
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

// TestSparseFlatTraceIdentical: the fixed workload reproduces the flat
// planner's recorded trace and stats for every coding × ablation
// combination.
func TestSparseFlatTraceIdentical(t *testing.T) {
	want := map[string]recorded{
		"coding=flat/early=false": {"b70d6f86f97f1f026749512087b827a117edd2459bb852d5047c6d724563586d",
			Stats{WormsCreated: 711, PacketsInjected: 30, FlitHops: 94563, FlitsDelivered: 65968,
				PacketsAtNI: 496, PacketsToHost: 496, MessagesSent: 30, MessagesDone: 30}},
		"coding=flat/early=true": {"02400842e1b8e235351464bb69adcd717d684f9f40223efa09c702bdbcee05a1",
			Stats{WormsCreated: 695, PacketsInjected: 30, FlitHops: 92435, FlitsDelivered: 65968,
				PacketsAtNI: 496, PacketsToHost: 496, MessagesSent: 30, MessagesDone: 30}},
		"coding=ival/early=false": {"44a5d26acbca7155dcf669750b979261dc5717b6fc8f3331ae62c9077d696ba3",
			Stats{WormsCreated: 713, PacketsInjected: 30, FlitHops: 100938, FlitsDelivered: 70204,
				PacketsAtNI: 496, PacketsToHost: 496, MessagesSent: 30, MessagesDone: 30}},
		"coding=ival/early=true": {"341f74c5e130f4aa37f047b9d96f3845da2c8f2c8d4810e71aa84dad62cac012",
			Stats{WormsCreated: 691, PacketsInjected: 30, FlitHops: 97834, FlitsDelivered: 70204,
				PacketsAtNI: 496, PacketsToHost: 496, MessagesSent: 30, MessagesDone: 30}},
	}
	for _, coding := range []DestCoding{HeaderFlat, HeaderIval} {
		for _, early := range []bool{false, true} {
			name := fmt.Sprintf("coding=%v/early=%v", coding, early)
			t.Run(name, func(t *testing.T) {
				trace, stats := repTraceRun(t, coding, early)
				checkRecorded(t, trace, stats, want[name])
			})
		}
	}
}

// TestSparseGroupChurnIdentical: the dynamic-group path (pooled
// snapshots, stale/missed classification) reproduces the flat planner's
// recorded trace and stats too.
func TestSparseGroupChurnIdentical(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n, err := New(rt, DefaultParams(), 13, WithTrace(func(ev TraceEvent) {
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
	fmt.Fprintf(&sb, "stale=%d missed=%d\n", g.Stale(), g.Missed())
	checkRecorded(t, sb.String(), n.Stats(), recorded{"f502315102cffdc68b5e3b598f6caaaec0b7fe348fb285dc8fb99826d9178049",
		Stats{WormsCreated: 54, PacketsInjected: 6, FlitHops: 7182, FlitsDelivered: 3192,
			PacketsAtNI: 24, PacketsToHost: 24, MessagesSent: 3, MessagesDone: 3,
			MembershipEvents: 3, StaleDeliveries: 1, MissedDeliveries: 3}})
}

// TestSparseLocalRange pins the topology's host spans that planTree's
// local gate reads: contiguous attachments get ranges, irregular ones
// fall back to the probe, and the gate predicate matches a brute-force
// membership check on both.
func TestSparseLocalRange(t *testing.T) {
	n := randomNet(t, topology.DefaultConfig(), DefaultParams(), 19)
	topo := n.topo
	for s := 0; s < topo.NumSwitches; s++ {
		nodes := topo.NodesAt(topology.SwitchID(s))
		lo, hi, ok := topo.HostSpan(topology.SwitchID(s))
		switch {
		case len(nodes) == 0:
			if !ok || lo <= hi {
				t.Fatalf("switch %d: hostless span wrong: [%d,%d] ok=%v", s, lo, hi, ok)
			}
		case int(nodes[len(nodes)-1])-int(nodes[0])+1 == len(nodes):
			if !ok || lo != int(nodes[0]) || hi != int(nodes[len(nodes)-1]) {
				t.Fatalf("switch %d: contiguous range [%d,%d] ok=%v, nodes %v", s, lo, hi, ok, nodes)
			}
		default:
			if ok {
				t.Fatalf("switch %d: irregular attachment not marked: [%d,%d]", s, lo, hi)
			}
		}
		// Predicate equivalence against a brute-force membership check.
		d := n.getRuns()
		d.Add(int(topo.NumNodes - 1))
		if len(nodes) > 0 {
			d.Add(int(nodes[0]))
		}
		want := false
		for _, node := range nodes {
			if d.Contains(int(node)) {
				want = true
			}
		}
		if got := n.localIntersects(d, topology.SwitchID(s)); got != want {
			t.Fatalf("switch %d: localIntersects=%v, brute force %v", s, got, want)
		}
		n.putRuns(d)
	}
}
