package sim

import (
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// randomNet builds a random routed network for stress testing.
func randomNet(t *testing.T, cfg topology.Config, p Params, seed uint64) *Network {
	t.Helper()
	topo, err := topology.Generate(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(rt, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// randomTreePlan builds a single-tree-worm plan to a random destination set.
func randomTreePlan(r *rng.Source, numNodes int) *Plan {
	src := topology.NodeID(r.Intn(numNodes))
	k := 1 + r.Intn(numNodes-1)
	var dests []topology.NodeID
	for _, v := range r.Sample(numNodes, k+1) {
		if topology.NodeID(v) != src && len(dests) < k {
			dests = append(dests, topology.NodeID(v))
		}
	}
	if len(dests) == 0 {
		dests = []topology.NodeID{topology.NodeID((int(src) + 1) % numNodes)}
	}
	return &Plan{
		Source:    src,
		Dests:     dests,
		HostSends: map[topology.NodeID][]WormSpec{src: {{Kind: WormTree, DestSet: dests}}},
	}
}

func randomUnicastPlan(r *rng.Source, numNodes int) *Plan {
	src := topology.NodeID(r.Intn(numNodes))
	dst := topology.NodeID(r.Intn(numNodes))
	for dst == src {
		dst = topology.NodeID(r.Intn(numNodes))
	}
	return unicastPlan(src, dst)
}

func TestStressRandomUnicastTraffic(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		n := randomNet(t, topology.DefaultConfig(), DefaultParams(), seed)
		r := rng.New(seed * 977)
		for i := 0; i < 120; i++ {
			plan := randomUnicastPlan(r, n.Topology().NumNodes)
			flits := 1 + r.Intn(400)
			if _, err := n.Send(plan, flits, event.Time(r.Intn(3000)), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStressRandomTreeWorms(t *testing.T) {
	cfgs := []topology.Config{
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
	}
	for ci, cfg := range cfgs {
		for seed := uint64(1); seed <= 3; seed++ {
			n := randomNet(t, cfg, DefaultParams(), seed+uint64(ci)*100)
			r := rng.New(seed * 31)
			sent := make([]*Message, 0, 60)
			for i := 0; i < 60; i++ {
				plan := randomTreePlan(r, n.Topology().NumNodes)
				m, err := n.Send(plan, 128, event.Time(r.Intn(4000)), nil)
				if err != nil {
					t.Fatal(err)
				}
				sent = append(sent, m)
			}
			if err := n.Drain(0); err != nil {
				t.Fatalf("cfg %d seed %d: %v", ci, seed, err)
			}
			if err := n.CheckConservation(); err != nil {
				t.Fatalf("cfg %d seed %d: %v", ci, seed, err)
			}
			for _, m := range sent {
				if len(m.DoneAt) != len(m.Plan.Dests) {
					t.Fatalf("message %d delivered %d/%d", m.ID, len(m.DoneAt), len(m.Plan.Dests))
				}
			}
		}
	}
}

func TestStressMixedKinds(t *testing.T) {
	// Unicast and tree worms interleaved under the same load; exercises
	// port contention between replication branches and ordinary worms.
	n := randomNet(t, topology.DefaultConfig(), DefaultParams(), 42)
	r := rng.New(4242)
	for i := 0; i < 100; i++ {
		var plan *Plan
		if r.Intn(2) == 0 {
			plan = randomTreePlan(r, n.Topology().NumNodes)
		} else {
			plan = randomUnicastPlan(r, n.Topology().NumNodes)
		}
		if _, err := n.Send(plan, 1+r.Intn(300), event.Time(r.Intn(2500)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestStressSmallBuffers(t *testing.T) {
	// Tiny buffers stress the credit machinery and wormhole blocking.
	p := DefaultParams()
	p.BufferFlits = 2
	n := randomNet(t, topology.DefaultConfig(), p, 7)
	r := rng.New(77)
	for i := 0; i < 80; i++ {
		if _, err := n.Send(randomTreePlan(r, n.Topology().NumNodes), 256, event.Time(r.Intn(2000)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestStressLinkFaults fails up to three non-partitioning links at random
// times under mixed tree and unicast traffic, on random topologies where
// a whole packet can sit in one switch buffer, and requires every message
// to complete and the network to drain to its idle state with every
// message and packet accounted for.
func TestStressLinkFaults(t *testing.T) {
	var seeds []uint64
	last := uint64(200)
	if testing.Short() {
		seeds, last = []uint64{159}, 16
	}
	for s := uint64(1); s <= last; s++ {
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		r := rng.New(rng.Mix(s, 0x11fa))
		cfg := topology.Config{Switches: 8 + r.Intn(24), PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}
		p := DefaultParams()
		p.BufferFlits = 1 + r.Intn(16)
		p.PacketFlits = 8 << r.Intn(4)
		p.FaultDetectCycles = event.Time(r.Intn(3000))
		n := randomNet(t, cfg, p, s)
		topo := n.Topology()
		msgs := make([]*Message, 0, 12)
		for i := 0; i < 12; i++ {
			var plan *Plan
			if r.Intn(2) == 0 {
				plan = randomTreePlan(r, topo.NumNodes)
			} else {
				plan = randomUnicastPlan(r, topo.NumNodes)
			}
			m, err := n.Send(plan, 16+r.Intn(300), event.Time(r.Intn(2000)), nil)
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		dead := make([]bool, len(topo.Links))
		var fs FaultSchedule
		for k := 1 + r.Intn(3); k > 0; k-- {
			li := r.Intn(len(topo.Links))
			if dead[li] {
				continue
			}
			dead[li] = true
			if !topo.ConnectedExcluding(dead, nil) {
				dead[li] = false
				continue
			}
			fs.Events = append(fs.Events, FaultEvent{At: event.Time(r.Intn(3000)), Kind: FaultLink, Link: li})
		}
		if err := n.InstallFaults(&fs); err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(0); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		for _, m := range msgs {
			if !m.Done() {
				t.Fatalf("seed %d: message %d never completed", s, m.ID)
			}
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Identical seeds must give bit-identical latency traces.
	run := func() []event.Time {
		n := randomNet(t, topology.DefaultConfig(), DefaultParams(), 5)
		r := rng.New(55)
		msgs := make([]*Message, 0, 40)
		for i := 0; i < 40; i++ {
			m, err := n.Send(randomTreePlan(r, n.Topology().NumNodes), 128, event.Time(r.Intn(2000)), nil)
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		if err := n.Drain(0); err != nil {
			t.Fatal(err)
		}
		out := make([]event.Time, len(msgs))
		for i, m := range msgs {
			out[i] = m.Latency()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at message %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestFlitConservationTreeWorms checks exact flit accounting: each tree
// multicast delivers exactly (header + payload) flits per destination.
func TestFlitConservationTreeWorms(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		n := randomNet(t, topology.DefaultConfig(), DefaultParams(), seed)
		r := rng.New(seed * 7)
		totalDests := 0
		for i := 0; i < 25; i++ {
			plan := randomTreePlan(r, n.Topology().NumNodes)
			totalDests += len(plan.Dests)
			if _, err := n.Send(plan, 128, event.Time(i*500), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(0); err != nil {
			t.Fatal(err)
		}
		per := int64(TreeHeaderFlits(n.Topology().NumNodes) + 128)
		if got, want := n.Stats().FlitsDelivered, per*int64(totalDests); got != want {
			t.Fatalf("seed %d: delivered %d flits, want %d", seed, got, want)
		}
	}
}

// TestFlitConservationNITree: each NI-tree destination receives one
// unicast copy (header + payload) per packet.
func TestFlitConservationNITree(t *testing.T) {
	n := randomNet(t, topology.DefaultConfig(), DefaultParams(), 9)
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3, 4, 5},
		NITree: map[topology.NodeID][]topology.NodeID{
			0: {1, 2},
			1: {3, 4},
			2: {5},
		},
	}
	const flits = 128 * 2 // two packets
	if _, err := n.Send(plan, flits, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	per := int64(uniHeader(n) + 128)
	want := per * 2 /*packets*/ * 5 /*dests*/
	if got := n.Stats().FlitsDelivered; got != want {
		t.Fatalf("delivered %d flits, want %d", got, want)
	}
	// Replication accounting: 5 copies per packet = 10 packet injections
	// across all NIs.
	if got := n.Stats().PacketsInjected; got != 10 {
		t.Fatalf("injected %d packet streams, want 10", got)
	}
}

// TestStoreAndForwardConservation: the S&F ablation must deliver exactly
// the same flit totals as FPFS, only later.
func TestStoreAndForwardConservation(t *testing.T) {
	run := func(sf bool) (int64, event.Time) {
		p := DefaultParams()
		p.NIStoreAndForward = sf
		n := randomNet(t, topology.DefaultConfig(), p, 4)
		plan := &Plan{
			Source: 0,
			Dests:  []topology.NodeID{1, 2, 3},
			NITree: map[topology.NodeID][]topology.NodeID{0: {1}, 1: {2}, 2: {3}},
		}
		m, err := n.Send(plan, 128*4, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(0); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return n.Stats().FlitsDelivered, m.Latency()
	}
	fpfsFlits, fpfsLat := run(false)
	sfFlits, sfLat := run(true)
	if fpfsFlits != sfFlits {
		t.Fatalf("flit totals differ: fpfs=%d sf=%d", fpfsFlits, sfFlits)
	}
	if sfLat <= fpfsLat {
		t.Fatalf("store-and-forward (%d) not slower than FPFS (%d) on a 3-deep chain", sfLat, fpfsLat)
	}
}

// TestCrossInstanceDeterminism guards against map-iteration-order leaks
// into simulation behavior (Go randomizes map ranges per iteration, so
// identical fresh networks diverge if any behavior path ranges over a
// map). Two independently built networks must produce bit-identical
// latencies for the same multicast workload.
func TestCrossInstanceDeterminism(t *testing.T) {
	run := func() []event.Time {
		n := randomNet(t, topology.DefaultConfig(), DefaultParams(), 17)
		r := rng.New(171)
		msgs := make([]*Message, 0, 30)
		for i := 0; i < 30; i++ {
			plan := randomTreePlan(r, n.Topology().NumNodes)
			m, err := n.Send(plan, 128, event.Time(i*300), nil)
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		if err := n.Drain(0); err != nil {
			t.Fatal(err)
		}
		out := make([]event.Time, len(msgs))
		for i, m := range msgs {
			out[i] = m.Latency()
		}
		return out
	}
	for trial := 0; trial < 5; trial++ {
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: run diverged at message %d: %d vs %d", trial, i, a[i], b[i])
			}
		}
	}
}
