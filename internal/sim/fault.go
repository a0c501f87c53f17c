package sim

import (
	"fmt"

	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// This file implements the dynamic fault layer: scheduled link/switch
// failures and repairs, worm teardown at failed channels, destination
// failure accounting (the input to NI-level retransmission), and the
// reconfiguration epoch that recomputes up*/down* state after a
// detection delay.
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

// ensureFaultState lazily allocates the fault masks.
func (n *Network) ensureFaultState() {
	if n.deadLink == nil {
		n.deadLink = make([]bool, len(n.topo.Links))
		n.deadSwitch = make([]bool, n.topo.NumSwitches)
	}
}

// markProgress bumps the watchdog's progress counter for control-plane
// steps that legitimately move the simulation forward without moving a
// flit (reconfiguration, aborts, retry scheduling).
func (n *Network) markProgress() { n.progress++ }

// NodeAlive reports whether node d's NI is still attached to a live
// switch (the retransmission layer gives up on dead nodes).
func (n *Network) NodeAlive(d topology.NodeID) bool {
	x := n.nis[d]
	return x == nil || !x.dead // an unbuilt host is pristine, so alive
}

// Partitioned reports whether a reconfiguration attempt found the alive
// switch graph disconnected (stale tables stay in place; destinations
// across the cut fail permanently).
func (n *Network) Partitioned() bool { return n.partitioned }

// routeFailure handles a header that cannot be routed legally. Under an
// injected fault this is an expected transient — the worm is torn down
// and its destinations failed for the retransmission layer. On a
// fault-free network it is a scheme/routing bug: the violation is
// recorded for Drain to surface, and the worm is still torn down so the
// simulation terminates instead of wedging.
func (n *Network) routeFailure(o *occupant, s topology.SwitchID, reason string) {
	if !n.faultedEver() && n.invariant == nil {
		n.invariant = &InvariantError{At: n.queue.Now(), Switch: s, Reason: reason}
	}
	n.killOccupant(o)
}

// faultedEver reports whether any fault has ever been injected.
func (n *Network) faultedEver() bool { return n.faulted }

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
	// queued behind it waits forever. A dead (orphaned) NI resets its own
	// injection side instead.
	if br.injNI != nil && !br.injNI.dead {
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
	if x := n.nis[br.ch.dstNode]; x.rxWorm == br.w {
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
	for i, cand := range b.occupants {
		if cand == o {
			b.occupants = append(b.occupants[:i], b.occupants[i+1:]...)
			break
		}
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
		for _, d := range w.destSet.indices() {
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
	if x := n.nis[d]; x != nil {
		delete(x.rxMsgs, m)
		delete(x.rxHeld, m)
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

// severChannel marks a channel (and its owning output port, when it has
// one) dead and tears down everything physically cut at the break: the
// active sender, queued arbitration entries with no surviving candidate,
// truncated worms in the destination buffer, and partial packets at a
// destination NI.
func (n *Network) severChannel(ch *channel, op *outPort) {
	if ch == nil || ch.dead {
		return
	}
	ch.dead = true
	if s := ch.sender; s != nil && !s.done {
		n.deadEndBranch(s)
	}
	if op != nil {
		op.dead = true
		queue := op.queue
		op.queue = nil
		for _, req := range queue {
			if req.granted {
				continue
			}
			alive := false
			for _, p := range req.ports {
				if p != op && !p.dead {
					alive = true
					break
				}
			}
			if !alive {
				n.deadEndBranch(req.br)
			}
		}
	}
	if ch.toSwitch {
		// Worms whose tail had not fully crossed are truncated: the
		// downstream stub can never complete.
		occs := append([]*occupant(nil), ch.dstBuf.occupants...)
		for _, o := range occs {
			if o.arrived < o.w.len {
				n.killOccupant(o)
			}
		}
		return
	}
	// Ejection channel: a partial packet at the NI is discarded and the
	// node fails for its message.
	if w := n.nis[ch.dstNode].dropAssembly(); w != nil {
		w.dead = true
		n.failDest(w.msg, ch.dstNode)
		n.wormDecref(w) // the NI assembly leg; last, failDest reads w.msg
	}
}

// --- the fault schedule ---

// FaultKind selects what a FaultEvent does.
type FaultKind uint8

const (
	// FaultLink fails one inter-switch link (both directions).
	FaultLink FaultKind = iota
	// FaultSwitch fails a switch: all its ports die and the NIs attached
	// to it are orphaned.
	FaultSwitch
	// RepairLink restores a previously failed link (both endpoint
	// switches must be alive; the repair is ignored otherwise).
	RepairLink
)

func (k FaultKind) String() string {
	switch k {
	case FaultLink:
		return "fail-link"
	case FaultSwitch:
		return "fail-switch"
	case RepairLink:
		return "repair-link"
	default:
		return fmt.Sprintf("FaultKind(%d)", k)
	}
}

// FaultEvent is one scheduled fault: at cycle At, Kind happens to Link
// (an index into Topology.Links) or Switch.
type FaultEvent struct {
	At     event.Time
	Kind   FaultKind
	Link   int
	Switch topology.SwitchID
}

// FaultSchedule is a deterministic list of fault events. Build it before
// the run (seeded however the caller likes) and install it once.
type FaultSchedule struct {
	Events []FaultEvent
}

// InstallFaults schedules every event of fs on the simulation clock.
// Call before advancing past the earliest event time.
func (n *Network) InstallFaults(fs *FaultSchedule) error {
	n.ensureFaultState()
	now := n.queue.Now()
	// The schedule is copied so callers may reuse fs; each typed
	// evFaultApply event carries a pointer into the copy.
	events := append([]FaultEvent(nil), fs.Events...)
	for i := range events {
		ev := events[i]
		if ev.At < now {
			return fmt.Errorf("sim: fault event %d scheduled in the past (t=%d, now %d)", i, ev.At, now)
		}
		switch ev.Kind {
		case FaultLink, RepairLink:
			if ev.Link < 0 || ev.Link >= len(n.topo.Links) {
				return fmt.Errorf("sim: fault event %d: link %d out of range", i, ev.Link)
			}
		case FaultSwitch:
			if int(ev.Switch) < 0 || int(ev.Switch) >= n.topo.NumSwitches {
				return fmt.Errorf("sim: fault event %d: switch %d out of range", i, ev.Switch)
			}
		default:
			return fmt.Errorf("sim: fault event %d: unknown kind %d", i, ev.Kind)
		}
		n.queue.Post(ev.At, evFaultApply, &events[i], 0)
	}
	return nil
}

func (n *Network) applyFault(ev FaultEvent) {
	n.ensureFaultState()
	// Conservative route-cache invalidation: dead ports are filtered after
	// every cached decision, so stale-but-consistent entries would still
	// match the uncached code, but flushing keeps the epoch invariant
	// trivial to audit.
	n.routingEpoch++
	switch ev.Kind {
	case FaultLink:
		n.failLink(ev.Link)
	case FaultSwitch:
		n.failSwitch(ev.Switch)
	case RepairLink:
		n.repairLink(ev.Link)
	}
	n.markProgress()
}

// FailLink fails link li (an index into Topology.Links) at the current
// simulation time. Exposed for tests and custom traffic drivers;
// schedule-driven runs use InstallFaults.
func (n *Network) FailLink(li int) {
	n.applyFault(FaultEvent{Kind: FaultLink, Link: li})
}

// FailSwitch fails switch s at the current simulation time.
func (n *Network) FailSwitch(s topology.SwitchID) {
	n.applyFault(FaultEvent{Kind: FaultSwitch, Switch: s})
}

// RepairLink restores a failed link at the current simulation time.
func (n *Network) RepairLink(li int) {
	n.applyFault(FaultEvent{Kind: RepairLink, Link: li})
}

func (n *Network) failLink(li int) {
	if n.deadLink[li] {
		return
	}
	n.deadLink[li] = true
	n.faulted = true
	lk := n.topo.Links[li]
	n.trace(TraceEvent{Kind: TraceFault, Switch: lk.A, Port: lk.APort})
	opA := n.switches[lk.A].outPorts[lk.APort]
	opB := n.switches[lk.B].outPorts[lk.BPort]
	n.severChannel(opA.ch, opA)
	n.severChannel(opB.ch, opB)
	n.scheduleReconfig()
}

func (n *Network) failSwitch(s topology.SwitchID) {
	if n.deadSwitch[s] {
		return
	}
	n.deadSwitch[s] = true
	n.faulted = true
	n.trace(TraceEvent{Kind: TraceFault, Switch: s})
	t := n.topo
	// Build the switch's hosts first, so a pristine one's lines die with
	// the switch and its NI is orphaned like any other.
	for _, node := range n.nodesAt[s] {
		n.ni(node)
	}
	// Incoming channels first: upstream senders stop, truncated worms at s
	// die. Then outgoing channels: senders at s (and their downstream
	// stubs) die. Finally everything still buffered at s is lost.
	for p := 0; p < t.PortsPerSwitch; p++ {
		e := t.Conn[s][p]
		switch e.Kind {
		case topology.ToSwitch:
			peerOp := n.switches[e.Switch].outPorts[e.Port]
			n.severChannel(peerOp.ch, peerOp)
		case topology.ToNode:
			n.severChannel(n.nis[e.Node].inj, nil)
		}
	}
	for p := 0; p < t.PortsPerSwitch; p++ {
		if op := n.switches[s].outPorts[p]; op != nil {
			n.severChannel(op.ch, op)
		}
	}
	for p := 0; p < t.PortsPerSwitch; p++ {
		b := n.switches[s].inBufs[p]
		if b == nil {
			continue
		}
		occs := append([]*occupant(nil), b.occupants...)
		for _, o := range occs {
			n.killOccupant(o)
		}
	}
	for _, node := range n.nodesAt[s] {
		n.nis[node].orphan()
	}
	n.scheduleReconfig()
}

func (n *Network) repairLink(li int) {
	if !n.deadLink[li] {
		return
	}
	lk := n.topo.Links[li]
	if n.deadSwitch[lk.A] || n.deadSwitch[lk.B] {
		return // a dead endpoint keeps the link down
	}
	n.deadLink[li] = false
	n.trace(TraceEvent{Kind: TraceFault, Switch: lk.A, Port: lk.APort})
	n.reviveChannel(n.switches[lk.A].outPorts[lk.APort])
	n.reviveChannel(n.switches[lk.B].outPorts[lk.BPort])
	n.scheduleReconfig()
}

// reviveChannel resets a repaired channel to a clean idle state. Credits
// are re-derived from the destination buffer's true free space (surviving
// occupants may still be draining).
func (n *Network) reviveChannel(op *outPort) {
	ch := op.ch
	ch.dead = false
	op.dead = false
	ch.sender = nil
	if now := n.queue.Now(); ch.lineFree < now {
		ch.lineFree = now
	}
	if ch.toSwitch {
		ch.credits = ch.dstBuf.cap - ch.dstBuf.used
	}
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

// reconfigure recomputes up*/down* state over the surviving subgraph
// under the same tree policy the network started with, and atomically
// swaps the switch tables. If the alive switch graph is partitioned the
// stale tables stay in place (worms toward the lost part die at dead
// ports) and Partitioned() reports true.
func (n *Network) reconfigure() {
	n.ensureFaultState()
	opt := n.rt.Opts
	opt.DeadLinks = nil
	opt.DeadSwitches = nil
	for li, dead := range n.deadLink {
		if dead {
			opt.DeadLinks = append(opt.DeadLinks, li)
		}
	}
	for s, dead := range n.deadSwitch {
		if dead {
			opt.DeadSwitches = append(opt.DeadSwitches, topology.SwitchID(s))
		}
	}
	// Keep the old root while it survives (Autonet's behavior absent a
	// root failure); fall back to the default election otherwise.
	if !opt.CenterRoot {
		if int(n.rt.Root) < len(n.deadSwitch) && !n.deadSwitch[n.rt.Root] {
			opt.Root = n.rt.Root
		} else {
			opt.Root = -1
		}
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
	n.partitioned = false // a repair can reconnect a previously split graph
	n.stats.Reconfigs++
	n.markProgress()
}

// swapRouting atomically replaces the routing tables and the views
// derived from them.
func (n *Network) swapRouting(rt *updown.Routing) {
	n.rt = rt
	n.routingEpoch++ // every cached route was computed under the old tables
	n.rebuildRoutingViews()
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
	for _, x := range n.nis {
		if x != nil { // an unbuilt host holds nothing of m
			x.abortMessage(m)
		}
	}
	for _, st := range n.switches {
		for _, b := range st.inBufs {
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
