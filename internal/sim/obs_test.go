package sim

import (
	"reflect"
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/obs"
	"mcastsim/internal/topology"
)

// TestSteadyFlitPathZeroAllocObsEnabled extends the zero-alloc contract to
// a network with a recorder attached: the counters the flush reads are
// plain fields the simulator keeps either way, so streaming flits must
// not allocate with a recorder attached either. The flush cadence is
// pushed past the measured window so no Sample, which may allocate by
// design, lands inside it.
func TestSteadyFlitPathZeroAllocObsEnabled(t *testing.T) {
	p := DefaultParams()
	const flits = 4096
	p.PacketFlits = flits
	n := fixtureNet(t, p)
	rec := obs.NewRecorder(obs.Config{Every: 1 << 40})
	n.attachObs(rec)
	if _, err := n.Send(unicastPlan(0, 7), flits, 0, nil); err != nil {
		t.Fatal(err)
	}
	const ringWarm = 1100 // > event ring size (1024)
	for n.queue.Len() > 0 && (n.stats.FlitHops < 512 || n.queue.Now() < ringWarm) {
		n.queue.Step()
	}
	if n.queue.Len() == 0 {
		t.Fatal("message finished before reaching steady state")
	}
	avg := testing.AllocsPerRun(1000, func() { n.queue.Step() })
	if avg != 0 {
		t.Fatalf("steady flit path with obs enabled allocates %v per event, want 0", avg)
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// obsTestPlan is a small tree multicast from src to every other node; a
// few of these overlapped from different sources exercise replication,
// arbitration contention and credit backpressure on the fixture topology.
func obsTestPlan(src topology.NodeID) *Plan {
	var dests []topology.NodeID
	for n := topology.NodeID(0); n < 8; n++ {
		if n != src {
			dests = append(dests, n)
		}
	}
	return &Plan{
		Source: src,
		Dests:  dests,
		HostSends: map[topology.NodeID][]WormSpec{
			src: {{Kind: WormTree, DestSet: dests}},
		},
	}
}

// TestTraceByteIdentityWithObs pins the tentpole's non-interference
// guarantee: attaching a recorder must not move a single TraceEvent. The
// flush event reads state and never touches the arbitration RNG, so the
// traced streams with and without obs are identical element for element.
func TestTraceByteIdentityWithObs(t *testing.T) {
	run := func(rec *obs.Recorder) []TraceEvent {
		var evs []TraceEvent
		p := DefaultParams()
		n := fixtureNet(t, p)
		n.applyOptions(&netOptions{
			tracer: func(ev TraceEvent) { evs = append(evs, ev) },
			rec:    rec,
		})
		for i := 0; i < 3; i++ {
			if _, err := n.Send(obsTestPlan(topology.NodeID(i)), 256, n.Now()+event.Time(i*100), nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Drain(0); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		n.FlushObs()
		return evs
	}
	plain := run(nil)
	traced := run(obs.NewRecorder(obs.Config{Every: 64}))
	if len(plain) == 0 {
		t.Fatal("no trace events recorded")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("trace streams diverged: %d events without obs, %d with", len(plain), len(traced))
	}
}

// obsTotals is what one run's telemetry adds up to, or what a network's
// own counters read.
type obsTotals struct {
	chanFlits, flitHops, stalls, conflicts, deferred int64
	events, farPosts, migrations                     uint64
}

// runTotals sums the interval series of run in b.
func runTotals(b obs.Bundle, run int) obsTotals {
	var o obsTotals
	for _, s := range b.Snapshots {
		if s.Run != run {
			continue
		}
		for i := range s.ChanFlits {
			o.chanFlits += s.ChanFlits[i]
			o.stalls += s.ChanStalls[i]
		}
		for _, v := range s.ArbConflicts {
			o.conflicts += v
		}
		for _, v := range s.NIDeferred {
			o.deferred += v
		}
		o.flitHops += s.FlitHops
		o.events += s.Events
		o.farPosts += s.FarPosts
		o.migrations += s.Migrations
	}
	return o
}

// netTotals reads the same quantities from n's own counters, walking
// every channel the network built rather than the recorder's index.
func netTotals(n *Network) obsTotals {
	es := n.queue.EngineStats()
	o := obsTotals{flitHops: n.stats.FlitHops, events: es.Processed, farPosts: es.FarPosts, migrations: es.Migrations}
	chans := []*channel{}
	for i := range n.chans {
		chans = append(chans, &n.chans[i])
	}
	for _, h := range n.hosts {
		if h != nil {
			chans = append(chans, &h.inj, &h.ej)
			o.deferred += int64(h.ni.deferred)
		}
	}
	for _, ch := range chans {
		o.chanFlits += ch.busyFlits
		o.stalls += ch.stalls
	}
	for _, v := range n.arbConflicts {
		o.conflicts += v
	}
	return o
}

// TestObsReconciliation checks the telemetry's accounting invariant on a
// contended multi-message run: every interval series, summed over a run,
// equals the network's own total — flits per channel and in all, credit
// stalls, arbitration conflicts, NI deferrals, events, far posts and
// migrations — exactly, given the final flush. A second network attached
// to the same recorder reconciles against itself alone, which pins the
// rebase on attach. At a cadence past the 1,024-cycle calendar ring each
// flush tick is itself a far post, so that run exercises the engine's
// far-path series.
func TestObsReconciliation(t *testing.T) {
	p := DefaultParams()
	p.BufferFlits = 4           // shallow buffers so the storm exercises credit stalls
	p.NIInjectBufferPackets = 1 // and a one-packet NI buffer, deferrals
	for _, every := range []event.Time{128, 2048} {
		rec := obs.NewRecorder(obs.Config{Every: every})
		for run := 0; run < 2; run++ {
			n := fixtureNet(t, p)
			n.attachObs(rec)
			for i := 0; i < 4; i++ {
				if _, err := n.Send(obsTestPlan(topology.NodeID(2*i)), 512, n.Now()+event.Time(i*50), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Drain(0); err != nil {
				t.Fatal(err)
			}
			n.FlushObs()
			got, want := runTotals(rec.Bundle("test"), run), netTotals(n)
			if got != want {
				t.Fatalf("every %d, run %d: summed series %+v != network totals %+v", every, run, got, want)
			}
			if want.chanFlits != want.flitHops {
				t.Fatalf("every %d, run %d: channel flits %d != Stats.FlitHops %d", every, run, want.chanFlits, want.flitHops)
			}
			if want.events != n.EventsProcessed() {
				t.Fatalf("every %d, run %d: engine events %d != EventsProcessed %d", every, run, want.events, n.EventsProcessed())
			}
			// The contended tree storm must exercise every counter.
			if want.stalls == 0 || want.conflicts == 0 || want.deferred == 0 {
				t.Fatalf("every %d, run %d: storm left a counter at zero: %+v", every, run, want)
			}
			if every > 1024 && (want.farPosts == 0 || want.migrations == 0) {
				t.Fatalf("every %d, run %d: flush ticks past the ring posted no far event: %+v", every, run, want)
			}
		}
		if b := rec.Bundle("test"); len(b.Snapshots) < 4 {
			t.Fatalf("every %d: expected a multi-snapshot series per run, got %d snapshots", every, len(b.Snapshots))
		}
	}
}

// TestObsTickTerminates guards the scheduling rule that keeps telemetry
// from wedging a run: the flush tick re-arms only while model events are
// outstanding, so a drained network ends with an empty queue and a fresh
// Send re-arms sampling for the next run segment.
func TestObsTickTerminates(t *testing.T) {
	p := DefaultParams()
	n := fixtureNet(t, p)
	rec := obs.NewRecorder(obs.Config{Every: 64})
	n.attachObs(rec)
	if _, err := n.Send(unicastPlan(0, 7), 256, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if n.queue.Len() != 0 {
		t.Fatalf("queue holds %d events after drain (obs tick still armed?)", n.queue.Len())
	}
	if n.obsTickArmed {
		t.Fatal("obsTickArmed still set after drain")
	}
	first := len(rec.Samples())
	if first == 0 {
		t.Fatal("no samples recorded during the run")
	}
	// Second message on the same network: sampling must resume.
	if _, err := n.Send(unicastPlan(1, 6), 256, n.Now(), nil); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(rec.Samples()) <= first {
		t.Fatal("sampling did not resume for the second message")
	}
}
