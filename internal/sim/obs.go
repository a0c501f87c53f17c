package sim

import (
	"mcastsim/internal/obs"
	"mcastsim/internal/topology"
)

// Obs wiring. The network keeps every counter a snapshot reports —
// flits and credit stalls per channel, arbitration conflicts per switch,
// deferrals per NI, the engine's totals — whether or not a recorder is
// attached; the flush only reads them. With n.obsRec nil (the default)
// Send arms no flush tick, so no sampling event is ever posted.
//
// Sampling never perturbs the model: the flush only reads counters and
// queue depths, never touches n.arb, and the evObsFlush event's handler
// mutates no simulation state, so TraceEvent streams are byte-identical
// with obs enabled or disabled (only EventsProcessed moves, by the tick
// count).

// attachObs registers the network's shape with the recorder and indexes
// every channel for sampling. Enumeration order is deterministic:
// switch output channels in (switch, port) order, then per-node
// injection channels — the same walk ChannelUsage reports.
func (n *Network) attachObs(r *obs.Recorder) {
	n.obsRec = r
	n.obsChans = n.obsChans[:0]
	// Sampling reads every channel, so every host is built up front.
	for node := range n.hosts {
		n.host(topology.NodeID(node))
	}
	var labels []string
	t := n.topo
	for s := range topology.SwitchID(t.NumSwitches) {
		for p := range t.PortsPerSwitch {
			op := n.builtOutPort(s, p)
			if op == nil {
				continue
			}
			n.obsChans = append(n.obsChans, op.ch)
			labels = append(labels, n.portLabel(int(s), p))
		}
	}
	for node, h := range n.hosts {
		n.obsChans = append(n.obsChans, &h.inj)
		labels = append(labels, injLabel(node))
	}
	r.AttachNetwork(labels, n.topo.NumSwitches, n.topo.NumNodes)
}

// obsArm starts the sampling tick if obs is attached and no tick is
// pending. Called from Send, so an idle network schedules nothing.
func (n *Network) obsArm() {
	if n.obsRec == nil || n.obsTickArmed {
		return
	}
	n.obsTickArmed = true
	n.queue.PostAfter(n.obsRec.Every(), evObsFlush, nil, 0)
}

// obsTick is the evObsFlush handler: sample, then re-arm only while the
// model still has both in-flight messages and runnable events. The
// second condition matters for termination: Drain treats an empty queue
// with outstanding messages as a stall, and a self-rescheduling tick
// would otherwise keep the queue non-empty forever on a genuinely
// wedged run.
func (n *Network) obsTick() {
	n.obsFlush()
	if n.outstanding > 0 && n.queue.Len() > 0 {
		n.queue.PostAfter(n.obsRec.Every(), evObsFlush, nil, 0)
		return
	}
	n.obsTickArmed = false
}

// FlushObs captures the tail sampling interval — everything since the
// last tick — into the recorder. Traffic drivers call it once per
// network at end of run so interval series reconcile exactly with the
// final Stats (sum of per-channel flits == Stats.FlitHops). No-op when
// obs is disabled.
func (n *Network) FlushObs() {
	if n.obsRec != nil {
		n.obsFlush()
	}
}

// obsFlush writes one sample. Cumulative fields are passed as running
// totals; the recorder differentiates them against the previous sample.
func (n *Network) obsFlush() {
	r := n.obsRec
	r.Sample(n.queue.Now(), func(s *obs.Snapshot) {
		for i, ch := range n.obsChans {
			s.ChanFlits[i] = ch.busyFlits
			s.ChanStalls[i] = ch.stalls
		}
		copy(s.ArbConflicts, n.arbConflicts)
		// Every host is built (attachObs), so each switch's buffers are
		// its link ends' and its hosts'.
		for i := range n.bufs {
			s.BufOcc[n.bufs[i].sw] += int64(n.bufs[i].used)
		}
		for node, h := range n.hosts {
			s.BufOcc[h.buf.sw] += int64(h.buf.used)
			x := &h.ni
			s.NISend[node] = int64(len(x.ready) + len(x.injWait))
			var rx int64
			if x.rxWorm != nil {
				rx = 1
			}
			s.NIRecv[node] = rx
			s.NIDeferred[node] = int64(x.deferred)
		}
		if len(n.groups) > 0 {
			s.GroupSize = make([]int64, len(n.groups))
			s.GroupStale = make([]int64, len(n.groups))
			s.GroupMissed = make([]int64, len(n.groups))
			s.GroupRepairs = make([]int64, len(n.groups))
			for gi, g := range n.groups {
				s.GroupSize[gi] = int64(g.Size())
				s.GroupStale[gi] = g.stale
				s.GroupMissed[gi] = g.missed
				s.GroupRepairs[gi] = g.repairs
			}
		}
		s.FlitHops = n.stats.FlitHops
		es := n.queue.EngineStats()
		s.Events = es.Processed
		s.QueueLen = int64(es.Len)
		s.FarLen = int64(es.FarLen)
		s.FarPosts = es.FarPosts
		s.Migrations = es.Migrations
	})
}
