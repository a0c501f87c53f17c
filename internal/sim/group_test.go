package sim

import (
	"strings"
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
)

// groupPlan multicasts from src to dests as one tree worm — the shape the
// dynamic-group tests race against membership deltas.
func groupPlan(src topology.NodeID, dests []topology.NodeID) *Plan {
	return &Plan{
		Source: src,
		Dests:  append([]topology.NodeID(nil), dests...),
		HostSends: map[topology.NodeID][]WormSpec{
			src: {{Kind: WormTree, DestSet: append([]topology.NodeID(nil), dests...)}},
		},
	}
}

func TestGroupApply(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	g, err := n.NewGroup("g0", []topology.NodeID{1, 2})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	var members []TraceEvent
	setTestTracer(n, func(ev TraceEvent) {
		if ev.Kind == TraceMember {
			members = append(members, ev)
		}
	})
	err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
		{At: 10, Group: g.ID(), Node: 3, Kind: MemberJoin},
		{At: 20, Group: g.ID(), Node: 3, Kind: MemberJoin}, // redundant: no-op
		{At: 30, Group: g.ID(), Node: 2, Kind: MemberLeave},
		{At: 40, Group: g.ID(), Node: 5, Kind: MemberLeave}, // non-member: no-op
		{At: 50, Group: g.ID(), Node: 4, Kind: MemberJoin},
	}})
	if err != nil {
		t.Fatalf("InstallMembership: %v", err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if g.Joins() != 2 || g.Leaves() != 1 {
		t.Fatalf("joins/leaves = %d/%d, want 2/1 (redundant events must not count)", g.Joins(), g.Leaves())
	}
	if got := n.Stats().MembershipEvents; got != 3 {
		t.Fatalf("Stats.MembershipEvents = %d, want 3", got)
	}
	want := []topology.NodeID{1, 3, 4}
	got := g.Members()
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	if g.Size() != 3 || !g.Contains(3) || g.Contains(2) {
		t.Fatalf("membership accessors disagree: size=%d", g.Size())
	}
	if len(members) != 3 {
		t.Fatalf("got %d TraceMember events, want 3 (no-ops must not trace)", len(members))
	}
	if ev := members[0]; ev.Node != 3 || ev.Msg != int64(g.ID()) || ev.Pkt != int(MemberJoin) {
		t.Fatalf("first TraceMember = %+v", ev)
	}
}

func TestInstallMembershipValidation(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	g, err := n.NewGroup("g0", []topology.NodeID{1, 2})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	cases := map[string]MembershipEvent{
		"unregistered group": {At: 10, Group: g.ID() + 1, Node: 3, Kind: MemberJoin},
		"node out of range":  {At: 10, Group: g.ID(), Node: 99, Kind: MemberJoin},
		"unknown kind":       {At: 10, Group: g.ID(), Node: 3, Kind: MembershipKind(7)},
	}
	for name, ev := range cases {
		if err := n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{ev}}); err == nil {
			t.Errorf("%s: InstallMembership accepted %+v", name, ev)
		}
	}
	// Advance the clock, then try to schedule in the past.
	n.Schedule(100, func() {})
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
		{At: 50, Group: g.ID(), Node: 3, Kind: MemberJoin},
	}})
	if err == nil || !strings.Contains(err.Error(), "past") {
		t.Fatalf("past-event install: err = %v", err)
	}
	if g.Joins() != 0 || g.Leaves() != 0 || n.Stats().MembershipEvents != 0 {
		t.Fatalf("rejected installs mutated the group: joins=%d leaves=%d events=%d", g.Joins(), g.Leaves(), n.Stats().MembershipEvents)
	}
}

func TestNewGroupRejectsOutOfRangeMember(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	if _, err := n.NewGroup("bad", []topology.NodeID{1, 99}); err == nil {
		t.Fatal("NewGroup accepted an out-of-range member")
	}
}

func TestGroupStaleDelivery(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	dests := []topology.NodeID{3, 5, 7}
	g, err := n.NewGroup("g0", dests)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	// Node 7 leaves one cycle in — long before any flit can arrive — so
	// the in-flight message's snapshot delivers to a departed member.
	err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
		{At: 1, Group: g.ID(), Node: 7, Kind: MemberLeave},
	}})
	if err != nil {
		t.Fatalf("InstallMembership: %v", err)
	}
	m, err := n.SendToGroup(g, groupPlan(0, dests), 64, 0, nil)
	if err != nil {
		t.Fatalf("SendToGroup: %v", err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !m.DeliveredAll() {
		t.Fatalf("delivered %d/%d", len(m.DoneAt), len(m.Plan.Dests))
	}
	if g.Stale() != 1 || n.Stats().StaleDeliveries != 1 {
		t.Fatalf("stale = %d (stats %d), want 1", g.Stale(), n.Stats().StaleDeliveries)
	}
	if g.Missed() != 0 {
		t.Fatalf("missed = %d, want 0", g.Missed())
	}
	if m.Group() != g || m.snapshot != nil {
		t.Fatal("completed message kept its snapshot (pool leak)")
	}
	if len(g.inflight) != 0 {
		t.Fatalf("inflight not retired: %d", len(g.inflight))
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v (stale deliveries are physical deliveries)", err)
	}
}

func TestGroupMissedDelivery(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	dests := []topology.NodeID{3, 5}
	g, err := n.NewGroup("g0", dests)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	// Node 6 joins while the message is in flight: its snapshot excludes
	// the joiner, so the join is a missed delivery.
	err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
		{At: 1, Group: g.ID(), Node: 6, Kind: MemberJoin},
	}})
	if err != nil {
		t.Fatalf("InstallMembership: %v", err)
	}
	m, err := n.SendToGroup(g, groupPlan(0, dests), 64, 0, nil)
	if err != nil {
		t.Fatalf("SendToGroup: %v", err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if g.Missed() != 1 || n.Stats().MissedDeliveries != 1 {
		t.Fatalf("missed = %d (stats %d), want 1", g.Missed(), n.Stats().MissedDeliveries)
	}
	if g.Stale() != 0 {
		t.Fatalf("stale = %d, want 0", g.Stale())
	}
	if _, ok := m.DoneAt[6]; ok {
		t.Fatal("joiner received a message addressed before its join")
	}
	// A join after the message completes is not missed.
	err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
		{At: n.Now() + 1, Group: g.ID(), Node: 4, Kind: MemberJoin},
	}})
	if err != nil {
		t.Fatalf("InstallMembership: %v", err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if g.Missed() != 1 {
		t.Fatalf("missed moved to %d on a join with nothing in flight", g.Missed())
	}
}

// TestGroupIncrementalEqualsScratch is the sim-level half of the
// incremental-vs-rebuild property: any seeded join/leave interleaving
// applied event-by-event through the network leaves the group's bitset
// equal to a from-scratch replay over a plain set.
func TestGroupIncrementalEqualsScratch(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		n := fixtureNet(t, DefaultParams())
		g, err := n.NewGroup("g0", []topology.NodeID{1, 2, 3})
		if err != nil {
			t.Fatalf("NewGroup: %v", err)
		}
		r := rng.New(uint64(trial) + 1)
		var evs []MembershipEvent
		for i := 0; i < 40; i++ {
			evs = append(evs, MembershipEvent{
				At:    event.Time(1 + i),
				Group: g.ID(),
				Node:  topology.NodeID(r.Intn(8)),
				Kind:  MembershipKind(r.Intn(2)),
			})
		}
		if err := n.InstallMembership(&MembershipSchedule{Events: evs}); err != nil {
			t.Fatalf("InstallMembership: %v", err)
		}
		if err := n.Drain(0); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		scratch := map[topology.NodeID]bool{1: true, 2: true, 3: true}
		for _, ev := range evs {
			if ev.Kind == MemberJoin {
				scratch[ev.Node] = true
			} else {
				delete(scratch, ev.Node)
			}
		}
		if g.Size() != len(scratch) {
			t.Fatalf("trial %d: size %d, scratch %d", trial, g.Size(), len(scratch))
		}
		for _, m := range g.Members() {
			if !scratch[m] {
				t.Fatalf("trial %d: member %d not in scratch replay", trial, m)
			}
		}
	}
}

// churnScript drives a fixed interleaving of group multicasts and
// membership deltas and returns the full trace.
func churnScript(t *testing.T, n *Network, g *Group) []TraceEvent {
	t.Helper()
	var evs []TraceEvent
	setTestTracer(n, func(ev TraceEvent) { evs = append(evs, ev) })
	err := n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
		{At: 200, Group: g.ID(), Node: 6, Kind: MemberJoin},
		{At: 400, Group: g.ID(), Node: 5, Kind: MemberLeave},
		{At: 600, Group: g.ID(), Node: 5, Kind: MemberJoin},
	}})
	if err != nil {
		t.Fatalf("InstallMembership: %v", err)
	}
	send := func(at event.Time, dests []topology.NodeID) {
		if _, err := n.SendToGroup(g, groupPlan(6, dests), 48, at, nil); err != nil {
			t.Fatalf("SendToGroup: %v", err)
		}
	}
	// All sends are scheduled up front so they genuinely interleave with
	// the deltas under one Drain. Destination sets recur across deltas,
	// so later sends hit entries cached before the membership changed —
	// where a delta that could make an entry stale would show.
	send(0, []topology.NodeID{3, 5, 7})
	send(300, []topology.NodeID{3, 5, 7})
	send(310, []topology.NodeID{1, 2})
	send(500, []topology.NodeID{3, 7})
	send(700, []topology.NodeID{3, 5, 7})
	send(710, []topology.NodeID{1, 2})
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return evs
}

// TestGroupInvalidationMatchesFullFlush pins that membership churn needs
// no cache invalidation: the churn script on a cached network, whose
// entries live across every delta, traces identically to the same
// script with the cache disabled.
func TestGroupInvalidationMatchesFullFlush(t *testing.T) {
	run := func(disabled bool) []TraceEvent {
		n := fixtureNet(t, DefaultParams())
		n.cache.disabled = disabled
		g, err := n.NewGroup("g0", []topology.NodeID{3, 5, 7})
		if err != nil {
			t.Fatalf("NewGroup: %v", err)
		}
		evs := churnScript(t, n, g)
		if !disabled && (len(n.cache.climb) == 0 || len(n.cache.part) == 0) {
			t.Fatalf("churn never populated the cache (climb=%d part=%d)", len(n.cache.climb), len(n.cache.part))
		}
		return evs
	}
	diffTraces(t, run(false), run(true))
}
