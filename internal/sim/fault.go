package sim

import (
	"fmt"
	"slices"

	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// This file implements the dynamic fault layer: scheduled link failures,
// worm teardown at failed channels, destination failure accounting (the
// input to NI-level retransmission), and the reconfiguration epoch that
// recomputes up*/down* state after a detection delay.
//
// Teardown is lazy where it can be: only worms physically severed at a
// dying channel are torn down eagerly. Stale worms elsewhere die when
// they hit a dead port (fileRequest), a dead channel (pump), or a
// routing dead end (routeFailure); their in-flight flits are drained and
// dropped, with credits handed back on surviving channels so no buffer
// slot leaks.

// InvariantError reports a routing invariant violated on a fault-free
// network — a condition the fault layer treats as retryable but which,
// with no fault injected, can only be a scheme or routing bug. The
// network records the first violation and Drain surfaces it.
type InvariantError struct {
	At     event.Time
	Switch topology.SwitchID
	Reason string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: routing invariant violated at switch %d, t=%d: %s", e.Switch, e.At, e.Reason)
}

// markProgress bumps the watchdog's progress counter for control-plane
// steps that legitimately move the simulation forward without moving a
// flit (reconfiguration, aborts, retry scheduling).
func (n *Network) markProgress() { n.progress++ }

// Partitioned reports whether a reconfiguration attempt found the switch
// graph disconnected by its failed links (stale tables stay in place;
// destinations across the cut fail permanently).
func (n *Network) Partitioned() bool { return n.partitioned }

// routeFailure handles a header that cannot be routed legally. Under an
// injected fault this is an expected transient — the worm is torn down
// and its destinations failed for the retransmission layer. On a
// fault-free network it is a scheme/routing bug: the violation is
// recorded for Drain to surface, and the worm is still torn down so the
// simulation terminates instead of wedging.
func (n *Network) routeFailure(o *occupant, s topology.SwitchID, reason string) {
	if !n.faulted && n.invariant == nil {
		n.invariant = &InvariantError{At: n.queue.Now(), Switch: s, Reason: reason}
	}
	n.killOccupant(o)
}

// killBranch tears down one branch: its child worm dies (in-flight flits
// drain), its pending arbitration entry is lazily cancelled, any held
// port is released, and it stops gating upstream eviction.
func (br *branch) kill() { br.net.killBranch(br) }

func (n *Network) killBranch(br *branch) {
	if br.done {
		return
	}
	br.done = true
	br.w.dead = true
	// An elastic branch never gates eviction; flipping the flag lets the
	// occupant's remaining flits drain past this branch.
	br.elastic = true
	if br.req != nil {
		br.req.granted = true // lazily dequeued by grant scans
		br.req = nil
	}
	n.stats.WormsKilled++
	n.trace(TraceEvent{Kind: TraceKill, Worm: br.w.id, Msg: br.w.msg.ID, Pkt: br.w.pkt})
	if br.port != nil {
		if br.port.holder == br {
			br.port.release(br)
		}
	} else if br.ch != nil && br.ch.sender == br {
		br.ch.sender = nil
	}
	// A killed injection-line branch never reaches its tail, so no evTail
	// will unwind the NI's streaming state: do it here, or every burst
	// queued behind it waits forever.
	if br.injNI != nil {
		br.injNI.streamDone(br.injLast)
	}
	n.queue.PostAfter(n.reclaimAfter, evReclaim, br, 0)
	if br.occ != nil {
		// Advance eviction before detaching: detaching can recycle the
		// occupant this branch was reading.
		br.occ.advanceEviction()
		n.detachBranch(br)
	}
}

// killDownstream chases a branch's already-sent flits: a downstream
// occupant of the same (now dead) worm is torn down recursively; a
// partial packet at an NI is discarded. Flits still on the wire drain at
// arrival via the dead-worm checks.
func (n *Network) killDownstream(br *branch) {
	if br.sent == 0 || br.ch == nil {
		return
	}
	if br.ch.toSwitch {
		for _, o := range br.ch.dstBuf.occupants {
			if o.w == br.w {
				n.killOccupant(o)
				return
			}
		}
		return
	}
	if x := &n.hosts[br.ch.dstNode].ni; x.rxWorm == br.w {
		n.wormDecref(x.dropAssembly()) // the NI assembly leg
	}
}

// killOccupant tears down a worm resident in an input buffer: every live
// branch dies (recursively downstream), every destination the worm still
// carries is failed, and the buffer space it held is freed with credits
// returned on a surviving upstream channel.
func (n *Network) killOccupant(o *occupant) {
	if o.killed {
		return
	}
	o.killed = true
	o.w.dead = true
	n.stats.WormsKilled++
	n.trace(TraceEvent{Kind: TraceKill, Worm: o.w.id, Msg: o.w.msg.ID, Pkt: o.w.pkt, Switch: o.buf.sw, Port: o.buf.port})
	// Backward: killBranch splices killed branches out of o.branches.
	for i := len(o.branches) - 1; i >= 0; i-- {
		br := o.branches[i]
		if br.done {
			continue
		}
		n.killBranch(br)
		n.killDownstream(br)
	}
	// Fail everything the worm still carried. Branch-delivered subsets
	// overlap this set; failDest is idempotent so the overlap is harmless.
	n.failWormDests(o.w)
	n.removeFromBuffer(o)
}

// removeFromBuffer splices a killed occupant out of its input buffer,
// frees its slots (credits return on a live upstream), and starts the
// next resident worm routing if the head just vanished.
func (n *Network) removeFromBuffer(o *occupant) {
	b := o.buf
	held := o.arrived - o.evicted
	b.used -= held
	if b.upstream != nil && !b.upstream.dead {
		b.postCredits(held)
	}
	wasHead := len(b.occupants) > 0 && b.occupants[0] == o
	if i := slices.Index(b.occupants, o); i >= 0 {
		b.occupants = slices.Delete(b.occupants, i, i+1)
	}
	o.detached = true
	n.tryRecycleOccupant(o)
	if wasHead {
		b.routeHead()
	}
}

// deadEndBranch tears down a branch that can no longer reach its
// consumers (dead channel, no live candidate port) and fails exactly the
// destinations that branch would have delivered.
func (n *Network) deadEndBranch(br *branch) {
	if br.done {
		return
	}
	n.killBranch(br)
	n.failBranchDests(br)
	n.killDownstream(br)
}

// failBranchDests fails the destinations one branch delivers: the
// explicit drop list for path-worm drop branches, else everything its
// child worm carries.
func (n *Network) failBranchDests(br *branch) {
	if br.drops != nil {
		for _, d := range br.drops {
			n.failDest(br.w.msg, d)
		}
		return
	}
	n.failWormDests(br.w)
}

// failWormDests fails every destination a worm carries.
func (n *Network) failWormDests(w *worm) {
	m := w.msg
	switch w.kind {
	case WormUnicast:
		n.failDest(m, w.dest)
	case WormTree:
		for _, d := range w.destSet.Indices() {
			n.failDest(m, topology.NodeID(d))
		}
	case WormPath:
		for _, seg := range w.path {
			for _, d := range seg.Drops {
				n.failDest(m, d)
			}
		}
	}
}

// failDest declares destination d of message m undeliverable. The
// destination still counts against remaining (the message completes with
// DeliveredAll() false), and d's delivery subtree — NI-tree children and
// secondary-source sends — fails with it, since d will never forward.
func (n *Network) failDest(m *Message, d topology.NodeID) {
	if _, done := m.DoneAt[d]; done {
		return // already delivered; nothing depended on the lost copy
	}
	if m.Failed(d) {
		return
	}
	if m.FailedAt == nil {
		m.FailedAt = make(map[topology.NodeID]event.Time)
	}
	m.FailedAt[d] = n.queue.Now()
	n.stats.DestsFailed++
	if h := n.hosts[d]; h != nil {
		delete(h.ni.rxMsgs, m)
		delete(h.ni.rxHeld, m)
	}
	for _, c := range m.Plan.DeliveryChildren(d) {
		n.failDest(m, c)
	}
	m.remaining--
	if m.remaining == 0 {
		n.outstanding--
		n.stats.MessagesDone++
		if m.group != nil {
			n.groupMsgDone(m)
		}
		if m.onComplete != nil {
			m.onComplete(m)
		}
	}
	n.markProgress()
}

// severChannel marks one failed link end's output port and its channel
// dead and tears down everything physically cut at the break: the active
// sender, queued arbitration entries with no surviving candidate, and
// truncated worms in the destination buffer.
func (n *Network) severChannel(op *outPort) {
	ch := op.ch
	ch.dead = true
	if s := ch.sender; s != nil && !s.done {
		n.deadEndBranch(s)
	}
	op.dead = true
	queue := op.queue
	op.queue = nil
	for _, req := range queue {
		if !req.granted && !slices.ContainsFunc(req.ports, func(p *outPort) bool { return p != op && !p.dead }) {
			n.deadEndBranch(req.br)
		}
		n.dropRequest(req)
	}
	// Worms whose tail had not fully crossed are truncated: the downstream
	// stub can never complete.
	occs := append([]*occupant(nil), ch.dstBuf.occupants...)
	for _, o := range occs {
		if o.arrived < o.w.len {
			n.killOccupant(o)
		}
	}
}

// --- the fault schedule ---

// FaultKind selects what a FaultEvent does.
type FaultKind uint8

// FaultLink fails one inter-switch link (both directions).
const FaultLink FaultKind = 0

func (k FaultKind) String() string {
	if k == FaultLink {
		return "fail-link"
	}
	return fmt.Sprintf("FaultKind(%d)", k)
}

// FaultEvent is one scheduled fault: at cycle At, Kind happens to Link
// (an index into Topology.Links).
type FaultEvent struct {
	At   event.Time
	Kind FaultKind
	Link int
}

// FaultSchedule is a deterministic list of fault events. Build it before
// the run (seeded however the caller likes) and install it once.
type FaultSchedule struct {
	Events []FaultEvent
}

// InstallFaults schedules every event of fs on the simulation clock.
// Call before advancing past the earliest event time.
func (n *Network) InstallFaults(fs *FaultSchedule) error {
	now := n.queue.Now()
	for i, ev := range fs.Events {
		if ev.At < now {
			return fmt.Errorf("sim: fault event %d scheduled in the past (t=%d, now %d)", i, ev.At, now)
		}
		if ev.Kind != FaultLink {
			return fmt.Errorf("sim: fault event %d: unknown kind %d", i, ev.Kind)
		}
		if ev.Link < 0 || ev.Link >= len(n.topo.Links) {
			return fmt.Errorf("sim: fault event %d: link %d out of range", i, ev.Link)
		}
		n.queue.Post(ev.At, evFaultApply, nil, int64(ev.Link))
	}
	return nil
}

// FailLink fails link li (an index into Topology.Links) at the current
// simulation time: both directions die, everything cut at the break is
// torn down, and a reconfiguration is scheduled. Failing a dead link
// again does nothing. Exposed for tests and custom traffic drivers;
// schedule-driven runs use InstallFaults.
func (n *Network) FailLink(li int) {
	if n.deadLink == nil {
		n.deadLink = make([]bool, len(n.topo.Links))
	}
	if !n.deadLink[li] {
		n.deadLink[li] = true
		n.faulted = true
		lk := n.topo.Links[li]
		n.trace(TraceEvent{Kind: TraceFault, Switch: lk.A, Port: lk.APort})
		n.severChannel(n.outPort(lk.A, lk.APort))
		n.severChannel(n.outPort(lk.B, lk.BPort))
		n.scheduleReconfig()
	}
	n.markProgress()
}

// --- reconfiguration ---

// scheduleReconfig arranges a routing recomputation FaultDetectCycles
// after the most recent fault event. Bursts of faults coalesce: each new
// event restarts the detection window and only the last scheduled
// rebuild runs.
func (n *Network) scheduleReconfig() {
	if n.params.FaultDetectCycles < 0 {
		return
	}
	n.reconfigEpoch++
	n.queue.PostAfter(n.params.FaultDetectCycles, evReconfig, nil, int64(n.reconfigEpoch))
}

// reconfigure recomputes up*/down* state over the surviving links under
// the same tree policy the network started with, and atomically swaps
// the switch tables. If the failed links partition the switch graph the
// stale tables stay in place (worms toward the lost part die at dead
// ports) and Partitioned() reports true from then on: links only fail,
// so no later reconfiguration can reconnect the cut.
func (n *Network) reconfigure() {
	opt := n.rt.Opts
	opt.DeadLinks = nil
	for li, dead := range n.deadLink {
		if dead {
			opt.DeadLinks = append(opt.DeadLinks, li)
		}
	}
	// Keep the old root (Autonet's behavior absent a root failure).
	if !opt.CenterRoot {
		opt.Root = n.rt.Root
	}
	rt2, err := updown.NewWithOptions(n.topo, opt)
	if err != nil {
		// Partitioned (or otherwise unroutable) surviving graph: keep the
		// stale tables. Destinations across the cut fail permanently as
		// their worms hit dead ports.
		n.partitioned = true
		n.markProgress()
		return
	}
	n.swapRouting(rt2)
	n.stats.Reconfigs++
	n.markProgress()
}

// swapRouting atomically replaces the routing tables, and with them the
// link views the planner reads (they belong to the Routing). It is the
// only code that empties the route cache: every entry was computed from
// the old tables (see routecache.go).
func (n *Network) swapRouting(rt *updown.Routing) {
	n.rt = rt
	n.cache.reset()
}

// AbortMessage tears down every remaining trace of m across the network
// — queued bursts, streaming injections, resident worms, partial packets
// — and fails every still-undelivered destination, completing the
// message. The retransmission layer calls this on timeout before
// re-planning the remainder.
func (n *Network) AbortMessage(m *Message) {
	if m.Done() {
		return
	}
	for _, h := range n.hosts {
		if h != nil { // an unbuilt host holds nothing of m
			h.ni.abortMessage(m)
		}
	}
	t := n.topo
	for s := range topology.SwitchID(t.NumSwitches) {
		for p := range t.PortsPerSwitch {
			b := n.inBuf(s, p)
			if b == nil {
				continue
			}
			occs := append([]*occupant(nil), b.occupants...)
			for _, o := range occs {
				if o.w.msg == m {
					n.killOccupant(o)
				}
			}
		}
	}
	for _, d := range m.Plan.Dests {
		n.failDest(m, d)
	}
	n.markProgress()
}
