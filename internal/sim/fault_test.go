package sim

import (
	"errors"
	"strings"
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// unicastReplanner retransmits the failed remainder as plain unicast
// sends from the source — the simplest legal fallback any scheme can use.
func unicastReplanner(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID, _ int) (*Plan, error) {
	specs := make([]WormSpec, len(dests))
	for i, d := range dests {
		specs[i] = WormSpec{Kind: WormUnicast, Dest: d}
	}
	return &Plan{
		Source:    src,
		Dests:     append([]topology.NodeID(nil), dests...),
		HostSends: map[topology.NodeID][]WormSpec{src: specs},
	}, nil
}

// killFirstGrantedLink installs a tracer that fails the first inter-switch
// link a worm is granted, a few cycles into its stream — a guaranteed
// mid-flight severing of the worm's own path.
func killFirstGrantedLink(n *Network) {
	fired := false
	setTestTracer(n, func(ev TraceEvent) {
		if fired || ev.Kind != TraceGrant {
			return
		}
		li := n.Topology().LinkAt(ev.Switch, ev.Port)
		if li < 0 {
			return
		}
		fired = true
		n.Schedule(n.Now()+20, func() { n.FailLink(li) })
	})
}

func TestLinkFaultMidFlightUnicastRecovers(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	killFirstGrantedLink(n)
	plan := unicastPlan(0, 7)
	d, err := n.RunReliable(plan, 512, unicastReplanner, DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if !d.DeliveredAll() {
		t.Fatalf("not fully delivered: %d/%d, failed %v", d.Delivered(), len(d.Dests), d.Failed)
	}
	s := n.Stats()
	if s.WormsKilled == 0 {
		t.Fatal("fault never tore down a worm (did the kill miss the flight?)")
	}
	if d.Attempts < 2 {
		t.Fatalf("delivered in %d attempts despite a severed path", d.Attempts)
	}
	if s.FlitsDropped == 0 {
		t.Fatal("severed worm dropped no flits")
	}
}

func TestLinkFaultTreeWormRecovers(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	killFirstGrantedLink(n)
	dests := []topology.NodeID{3, 5, 7}
	plan := &Plan{
		Source: 0,
		Dests:  dests,
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormTree, DestSet: dests}},
		},
	}
	d, err := n.RunReliable(plan, 256, unicastReplanner, DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if !d.DeliveredAll() {
		t.Fatalf("not fully delivered: %d/%d, failed %v", d.Delivered(), len(d.Dests), d.Failed)
	}
	if n.Stats().WormsKilled == 0 {
		t.Fatal("fault never tore down a worm")
	}
}

func TestLinkFaultPathWormRecovers(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	killFirstGrantedLink(n)
	// Path: source 0 -> stop at switch 3 (drop node 3) -> continue out
	// port 2 (the 3-5 link) -> stop at switch 5 (drop node 5).
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{3, 5},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormPath, Path: []PathSeg{
				{Switch: 3, Drops: []topology.NodeID{3}, NextPort: 2},
				{Switch: 5, Drops: []topology.NodeID{5}, NextPort: -1},
			}}},
		},
	}
	d, err := n.RunReliable(plan, 256, unicastReplanner, DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if !d.DeliveredAll() {
		t.Fatalf("not fully delivered: %d/%d, failed %v", d.Delivered(), len(d.Dests), d.Failed)
	}
	if n.Stats().WormsKilled == 0 {
		t.Fatal("fault never tore down a worm")
	}
}

func TestReconfigurationReroutesAfterFault(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	// Fail the 5-7 link on an idle network, let the detection window pass,
	// then verify a fresh multicast routes around it (7 only reachable via
	// 6 now) with no retries needed.
	n.Schedule(0, func() { n.FailLink(8) })
	if err := n.Drain(0); err != nil {
		t.Fatalf("drain after fault: %v", err)
	}
	if n.Stats().Reconfigs != 1 {
		t.Fatalf("Reconfigs = %d, want 1", n.Stats().Reconfigs)
	}
	if n.Partitioned() {
		t.Fatal("spuriously partitioned")
	}
	d, err := n.RunReliable(unicastPlan(0, 7), 128, unicastReplanner, DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if !d.DeliveredAll() || d.Attempts != 1 {
		t.Fatalf("post-reconfiguration delivery: attempts=%d failed=%v", d.Attempts, d.Failed)
	}
	if n.Stats().WormsKilled != 0 {
		t.Fatal("post-reconfiguration route still hit the dead link")
	}
}

func TestPartitionFailsUnreachableDests(t *testing.T) {
	n := twoSwitch(t)
	// Sever the only link mid-flight: nodes 2,3 become unreachable, and
	// no amount of retrying can fix it — the protocol must give up.
	killFirstGrantedLink(n)
	plan := unicastPlan(0, 2)
	d, err := n.RunReliable(plan, 512, unicastReplanner, DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("RunReliable: %v", err)
	}
	if len(d.Failed) != 1 || d.Failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", d.Failed)
	}
	if !n.Partitioned() {
		t.Fatal("partition not detected")
	}
	if d.Attempts > DefaultRetryPolicy().MaxAttempts {
		t.Fatalf("attempts %d exceeded policy cap", d.Attempts)
	}
}

func TestStallWatchdogReportsStructure(t *testing.T) {
	p := DefaultParams()
	p.StallCycles = 5_000
	topo, err := topology.Build(2, 4,
		[][4]int{{0, 0, 1, 0}},
		[][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(rt, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Induce a permanent stall without the fault layer's teardown: once
	// the stream starts, zero the injection line's credits and turn the
	// home buffer's credit return into a no-op, so the sender blocks on
	// backpressure forever.
	sabotaged := false
	setTestTracer(n, func(ev TraceEvent) {
		if sabotaged || ev.Kind != TraceInject {
			return
		}
		sabotaged = true
		n.Schedule(n.Now()+50, func() {
			n.hosts[0].inj.credits = 0
			// Point credit returns at a detached channel: the injection
			// line never regains credits and its sender never wakes.
			n.inBuf(0, 2).upstream = &channel{}
		})
	})
	// Keep the event queue alive so the watchdog (not queue exhaustion)
	// fires.
	var heartbeat func()
	heartbeat = func() {
		if n.Outstanding() > 0 {
			n.Schedule(n.Now()+500, heartbeat)
		}
	}
	n.Schedule(500, heartbeat)
	_, err = n.Send(unicastPlan(0, 2), 512, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = n.Drain(0)
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Drain = %v, want *StallError", err)
	}
	if stall.QueueEmpty {
		t.Fatal("watchdog should have fired before the queue emptied")
	}
	if stall.Outstanding != 1 {
		t.Fatalf("Outstanding = %d, want 1", stall.Outstanding)
	}
	if len(stall.Stuck) == 0 {
		t.Fatal("stall report names no stuck worms")
	}
	if !strings.Contains(err.Error(), "stall") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("unhelpful stall message: %q", err.Error())
	}
}

func TestInvariantErrorOnFaultFreeNetwork(t *testing.T) {
	n := twoSwitch(t)
	// A structurally valid plan whose continuation makes an illegal up
	// turn after descending: switch 1's port 0 points up (to the root),
	// and the worm arrives at switch 1 in the down phase.
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{2, 1},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormPath, Path: []PathSeg{
				{Switch: 1, Drops: []topology.NodeID{2}, NextPort: 0},
				{Switch: 0, Drops: []topology.NodeID{1}, NextPort: -1},
			}}},
		},
	}
	_, err := n.RunSingle(plan, 64)
	var inv *InvariantError
	if !errors.As(err, &inv) {
		t.Fatalf("RunSingle = %v, want *InvariantError", err)
	}
	if inv.Switch != 1 {
		t.Fatalf("invariant blamed switch %d, want 1", inv.Switch)
	}
	if !strings.Contains(inv.Error(), "up turn") {
		t.Fatalf("unhelpful invariant message: %q", inv.Error())
	}
}

func TestFaultScheduleValidation(t *testing.T) {
	n := twoSwitch(t)
	if err := n.InstallFaults(&FaultSchedule{Events: []FaultEvent{
		{At: 10, Kind: FaultLink, Link: 99},
	}}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if err := n.InstallFaults(&FaultSchedule{Events: []FaultEvent{
		{At: 10, Kind: FaultLink + 1, Link: 0},
	}}); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
	if err := n.InstallFaults(&FaultSchedule{Events: []FaultEvent{
		{At: 10, Kind: FaultLink, Link: 0},
		{At: 500, Kind: FaultLink, Link: 0},
	}}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestAbortMessageDropsEjectionStraggler aborts a unicast while only its
// tail flit is still on the ejection link. The NI's partial packet is
// discarded, so the straggler must drain as a dropped flit rather than
// start an assembly that never completes and blocks the next worm.
func TestAbortMessageDropsEjectionStraggler(t *testing.T) {
	n := twoSwitch(t)
	tailAt := event.Time(-1)
	setTestTracer(n, func(ev TraceEvent) {
		if ev.Kind == TraceTail && ev.Switch == 1 && ev.Port == 2 { // ej n2
			tailAt = ev.At
		}
	})
	m, err := n.Send(unicastPlan(0, 2), 16, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The tail leaves ej n2 at t=230 and lands one link delay later; the
	// abort, posted first, runs before it at t=231.
	n.Schedule(231, func() { n.AbortMessage(m) })
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if tailAt != 230 {
		t.Fatalf("tail left ej n2 at t=%d, want 230", tailAt)
	}
	if got := n.Stats().FlitsDropped; got != 1 {
		t.Fatalf("FlitsDropped = %d, want 1 (the tail straggler)", got)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatalf("conservation after abort: %v", err)
	}
	if m2 := mustRun(t, n, unicastPlan(1, 2), 16); !m2.DeliveredAll() {
		t.Fatalf("second message to node 2 failed at %v", m2.FailedDests())
	}
}

// TestQueuedRequestRecycledOnce pins the lifetime of a pooled arbitration
// request queued at two ports of switch 0. Killed or granted at the first
// port, it stays out of the free list while the second port's queue still
// holds it, returns when that queue drops it, and is handed out once.
func TestQueuedRequestRecycledOnce(t *testing.T) {
	for _, kill := range []bool{true, false} {
		n := fixtureNet(t, DefaultParams())
		msg := &Message{}
		branchOf := func() *branch {
			w := n.getWorm()
			w.msg = msg
			w.len = 1
			return n.newBranch(nil, w, 0)
		}
		ops := []*outPort{n.outPort(0, 0), n.outPort(0, 1)}
		holders := []*branch{branchOf(), branchOf()}
		for i, op := range ops {
			op.holder, holders[i].port = holders[i], op
		}
		br := branchOf()
		n.fileRequest(br, 0, []int{0, 1}, []updown.Phase{updown.PhaseUp, updown.PhaseUp})
		req := br.req
		if req == nil || len(ops[0].queue) != 1 || len(ops[1].queue) != 1 {
			t.Fatalf("kill=%v: the request is not queued at both held ports", kill)
		}
		pooled := len(n.pools.reqPool)
		if kill {
			n.killBranch(br)
		}
		ops[0].release(holders[0])
		if br.req != nil || !req.granted {
			t.Fatalf("kill=%v: after the first port let go, br.req = %p and granted = %v", kill, br.req, req.granted)
		}
		if granted := ops[0].holder == br; granted == kill {
			t.Fatalf("kill=%v: the first port granted the queued branch: %v", kill, granted)
		}
		if len(ops[0].queue) != 0 || len(n.pools.reqPool) != pooled {
			t.Fatalf("kill=%v: the request was recycled while the second port still queues it", kill)
		}
		ops[1].release(holders[1])
		if ops[1].holder != nil || len(ops[1].queue) != 0 {
			t.Fatalf("kill=%v: the second port granted a finished request", kill)
		}
		if len(n.pools.reqPool) != pooled+1 || req.br != nil || len(req.ports) != 0 {
			t.Fatalf("kill=%v: the request did not return, cleared, once the last queue dropped it", kill)
		}
		if a, b := n.getRequest(), n.getRequest(); a != req || b == req {
			t.Fatalf("kill=%v: the free list handed out %p, then %p; want %p once", kill, a, b, req)
		}
	}
}
