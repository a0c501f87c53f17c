package sim

import (
	"testing"
	"unsafe"

	"mcastsim/internal/topology"
)

// TestSteadyFlitPathZeroAlloc pins the PR 3 performance contract at the
// model level: once a worm is streaming, advancing flits (pump, deliver,
// credit return) posts and dispatches typed events with zero heap
// allocations per event. The event package has its own synthetic version
// of this test; this one drives the real switch pipeline.
func TestSteadyFlitPathZeroAlloc(t *testing.T) {
	p := DefaultParams()
	// One giant packet: no packet boundaries (worm creation, NI bursts)
	// inside the measured window — only the pure flit-advance path.
	const flits = 4096
	p.PacketFlits = flits
	n := fixtureNet(t, p)
	if _, err := n.Send(unicastPlan(0, 7), flits, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Run into the steady stream: past message setup (host overhead, DMA,
	// NI processing, routing) and past the calendar ring's first wrap, so
	// the ring's free list holds every chunk the stream's buckets take.
	const ringWarm = 1100 // > event ring size (1024)
	for n.queue.Len() > 0 && (n.stats.FlitHops < 512 || n.queue.Now() < ringWarm) {
		n.queue.Step()
	}
	if n.queue.Len() == 0 {
		t.Fatal("message finished before reaching steady state")
	}
	avg := testing.AllocsPerRun(1000, func() { n.queue.Step() })
	if avg != 0 {
		t.Fatalf("steady flit-advance path allocates %v per event, want 0", avg)
	}
	if n.queue.Len() == 0 {
		t.Fatal("queue drained inside the measured window; window is not steady-state")
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyTreeWormZeroAlloc extends the contract to replicating tree
// traffic: with the route cache warm (the first packets of each stream
// populate it) and the entity pools primed, streaming a tree worm through
// its replication switches allocates nothing per event. This is the PR 4
// hot path — partition lookups serve pooled subsets, replica worms and
// branches come from free lists, and teardown recycles them back.
func TestSteadyTreeWormZeroAlloc(t *testing.T) {
	p := DefaultParams()
	const flits = 8192
	p.PacketFlits = flits
	n := fixtureNet(t, p)
	dests := []topology.NodeID{1, 2, 3, 4, 5, 6, 7}
	plan := &Plan{
		Source: 0,
		Dests:  dests,
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormTree, DestSet: dests}},
		},
	}
	// Prime run: the first full multicast warms the route cache and stocks
	// every free list (worms, branches, occupants, sets, bursts) at the
	// high-water mark the steady stream needs.
	if _, err := n.RunSingle(plan, flits); err != nil {
		t.Fatal(err)
	}
	if len(n.cache.part) == 0 {
		t.Fatal("prime run never cached a down partition")
	}
	if _, err := n.Send(plan, flits, n.Now(), nil); err != nil {
		t.Fatal(err)
	}
	const ringWarm = 1100 // > event ring size (1024)
	steady := n.Now() + ringWarm
	start := n.stats.FlitHops
	for n.queue.Len() > 0 && (n.stats.FlitHops-start < 512 || n.queue.Now() < steady) {
		n.queue.Step()
	}
	if n.queue.Len() == 0 {
		t.Fatal("multicast finished before reaching steady state")
	}
	avg := testing.AllocsPerRun(1000, func() { n.queue.Step() })
	if avg != 0 {
		t.Fatalf("steady tree-worm path allocates %v per event, want 0", avg)
	}
	if n.queue.Len() == 0 {
		t.Fatal("queue drained inside the measured window; window is not steady-state")
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestValidatePlanZeroAlloc pins the send path's plan check at zero
// allocations once the network's set pool is warm, for each plan shape
// the schemes build: an NI tree and unicast, tree and path worms.
func TestValidatePlanZeroAlloc(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	dests := []topology.NodeID{1, 2, 3, 4, 5, 6, 7}
	plans := map[string]*Plan{
		"unicast": unicastPlan(0, 7),
		"tree":    {Source: 0, Dests: dests, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormTree, DestSet: dests}}}},
		"ni tree": {Source: 0, Dests: dests, NITree: map[topology.NodeID][]topology.NodeID{0: {1, 2}, 1: {3, 4, 5}, 2: {6, 7}}},
		"path": {Source: 0, Dests: []topology.NodeID{1, 3}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormPath, Path: []PathSeg{
			{Switch: 0, NextPort: 0}, {Switch: 1, Drops: []topology.NodeID{1}, NextPort: 1}, {Switch: 3, Drops: []topology.NodeID{3}, NextPort: -1},
		}}}}},
	}
	for name, plan := range plans {
		if err := n.validatePlan(plan); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if avg := testing.AllocsPerRun(100, func() { _ = n.validatePlan(plan) }); avg != 0 {
			t.Errorf("%s: validatePlan allocates %v per call with a warm pool, want 0", name, avg)
		}
	}
}

// TestHotStructSizes pins the layout of the per-hop state. A channel is
// touched on every flit hop and fills one 64-byte line, and a branch
// fills two; a host is allocated per node, and one more word would move
// it from the 416-byte to the 448-byte allocation size class. A counter
// added to any of them must take padding's place.
func TestHotStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(channel{}); got > 64 {
		t.Errorf("channel is %d bytes, want <= 64", got)
	}
	if got := unsafe.Sizeof(branch{}); got > 128 {
		t.Errorf("branch is %d bytes, want <= 128", got)
	}
	if got := unsafe.Sizeof(host{}); got > 416 {
		t.Errorf("host is %d bytes, want <= 416", got)
	}
}

// TestContendedPathZeroAlloc extends the contract to the contended path
// the tests above never reach. Unicast streams from nodes 2 and 4 meet at
// node 5's ejection port, so their packets' worms queue there and are
// granted in turn, and a path worm from node 0 stops at switches 1 and 3
// with a drop at each. Once one full run has primed the pools (requests
// included), streaming all three allocates nothing per event.
func TestContendedPathZeroAlloc(t *testing.T) {
	p := DefaultParams()
	p.PacketFlits = 32
	p.ONISend, p.ONIRecv = 1, 1 // back-to-back packets keep both streams contending
	const flits = 32 * 400
	n := fixtureNet(t, p)
	path := &Plan{Source: 0, Dests: []topology.NodeID{1, 3}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormPath, Path: []PathSeg{
		{Switch: 0, NextPort: 0}, {Switch: 1, Drops: []topology.NodeID{1}, NextPort: 1}, {Switch: 3, Drops: []topology.NodeID{3}, NextPort: -1},
	}}}}}
	plans := []*Plan{unicastPlan(2, 5), unicastPlan(4, 5), path}
	send := func() []*Message {
		var ms []*Message
		for _, plan := range plans {
			m, err := n.Send(plan, flits, n.Now(), nil)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		return ms
	}
	send()
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	conflicts := func() (c int64) {
		for _, v := range n.arbConflicts {
			c += v
		}
		return c
	}
	if conflicts() == 0 {
		t.Fatal("the prime run never queued a request")
	}
	ms := send()
	const ringWarm = 1100 // > event ring size (1024)
	steady := n.Now() + ringWarm
	for n.queue.Len() > 0 && n.queue.Now() < steady {
		n.queue.Step()
	}
	// One run of 5000 events, so that the count is the window's total
	// (AllocsPerRun rounds its per-run average down).
	before, hops := conflicts(), n.stats.FlitHops
	total := testing.AllocsPerRun(1, func() {
		for i := 0; i < 5000; i++ {
			n.queue.Step()
		}
	})
	if total != 0 {
		t.Fatalf("steady contended path allocates %v objects in 5000 events, want 0", total)
	}
	for _, m := range ms {
		if m.Done() {
			t.Fatalf("message %d finished inside the measured window; window is not steady-state", m.ID)
		}
	}
	if got := conflicts() - before; got < 10 {
		t.Fatalf("the measured window queued %d requests, want at least 10", got)
	}
	t.Logf("measured window: %d queued requests, %d flit hops", conflicts()-before, n.stats.FlitHops-hops)
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
