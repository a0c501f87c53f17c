package sim

import (
	"fmt"

	"mcastsim/internal/destset"
	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// channel is one directional hop: a switch output port's line to its peer
// input buffer, a switch node-port's line to an NI, or a node's injection
// line into its home switch. A channel carries one flit per cycle and is
// used by one sender (branch) at a time.
type channel struct {
	toSwitch bool
	dstBuf   *inputBuf       // when toSwitch
	dstNode  topology.NodeID // when !toSwitch (ejection into an NI)

	credits  int // free slots in dstBuf (meaningless for ejection)
	lineFree event.Time
	sender   *branch // active sender, for credit wake-ups

	// dead marks a failed channel: the active sender is torn down at the
	// break, in-flight flits past it are drained and dropped, and no new
	// grant streams over it until a repair resets the flag.
	dead bool

	obsID     int32 // index in Network.obsChans; meaningful only while obs is attached
	busyFlits int64 // flits carried, for utilization reports
}

// inputBuf is a switch input port's FIFO flit buffer with credit-based
// backpressure. Worms pass through it strictly head-of-line: only the
// oldest resident worm is routed and forwarded.
type inputBuf struct {
	net  *Network
	sw   topology.SwitchID
	port int
	cap  int
	used int

	upstream  *channel // the channel feeding this buffer (for credit return)
	occupants []*occupant
}

// bindUpstream records the channel feeding this buffer once it is known.
func (b *inputBuf) bindUpstream(up *channel) { b.upstream = up }

// creditReturn hands one buffer slot back to the feeding channel and
// wakes its sender. Scheduled as evCredit after the link delay or run
// inside a fused flit hop (evFlit); called directly when a drained
// straggler flit returns its slot immediately (fault teardown).
func (b *inputBuf) creditReturn() {
	up := b.upstream
	up.credits++
	if up.sender != nil {
		up.sender.schedulePump(b.net.queue.Now())
	}
}

// postCredits schedules one evCredit per freed slot, landing after the
// link delay.
func (b *inputBuf) postCredits(k int) {
	for ; k > 0; k-- {
		b.net.queue.PostAfter(b.net.params.LinkDelay, evCredit, b, 0)
	}
}

// occupant tracks one worm's residence in an input buffer.
type occupant struct {
	buf      *inputBuf
	w        *worm
	arrived  int // flits received so far
	evicted  int // flits freed so far (forwarded by every consumer branch)
	routed   bool
	routing  bool // a routing event is pending
	killed   bool // torn down by the fault layer; removed from the buffer
	detached bool // no longer in its buffer's occupant list (recyclable)
	live     int  // undone branches still attached (gates recycling)
	branches []*branch
}

// branch is one replication output of a worm at a hop: it streams the flit
// window [offset, w-parent-len) of its occupant's stream through one
// channel as the child worm `w`. NI packet injection reuses branch with a
// nil occupant (all flits are already in NI memory).
//
// An elastic branch drains from the switch's internal replication buffer:
// its flits are copied out of the input buffer on arrival, so its own
// stalls never backpressure upstream. Tree-worm replication is elastic on
// every branch — the asynchronous central-buffer replication of
// Stunkel/Sivaram/Panda (ISCA'97) that the paper assumes as "support for
// deadlock-free replication at the switches" (naive synchronous
// replication AND-couples branches and deadlocks when down paths
// reconverge; our stress tests reproduce that). Path-worm drops are
// likewise elastic (delivery buffering at the switch), but a path worm's
// continuation is synchronous: when it blocks, the worm stalls and holds
// its channel chain, the classic wormhole behavior that limits path-based
// multicast under load.
type branch struct {
	net     *Network
	occ     *occupant // nil for NI injection
	w       *worm     // the child worm delivered downstream; w.len flits to send
	elastic bool

	offset int // index in the occupant stream where this branch starts
	sent   int // flits sent so far; done when sent == w.len

	ch      *channel // set at grant (or at creation for NI injection)
	port    *outPort // nil for NI injection
	pumping bool
	done    bool

	// fuseBuf is the buffer whose credits the pending evFlit returns,
	// captured when the pump posted it, as an evCredit captures it.
	fuseBuf *inputBuf

	// injNI, when non-nil, is the NI whose injection stream this branch
	// carries: one cycle after the tail flit the NI's streamDone runs
	// (with injLast reporting whether this was the burst's final worm)
	// to start the next packet. Replaces a per-stream closure.
	injNI   *ni
	injLast bool

	// req is the branch's pending arbitration entry; a kill cancels it
	// lazily by marking it granted.
	req *portRequest
	// drops, when non-nil, names the exact destinations this branch
	// delivers (path-worm drop branches: the worm still carries the whole
	// remaining path, but the branch ejects to one node).
	drops []topology.NodeID
}

// deliver lands one flit at the branch's destination after the link
// delay (the evDeliver handler). ch and w are fixed for the branch's
// lifetime, so reading them at dispatch time matches the old engine's
// capture-at-grant closures exactly.
func (br *branch) deliver() {
	ch := br.ch
	if ch.toSwitch {
		ch.dstBuf.flitArrive(br.w)
		return
	}
	br.net.nis[ch.dstNode].flitArrive(br.w)
}

// tailRelease frees the branch's port (or injection line) one cycle
// after its tail flit, then advances the owning NI's injection stream
// (the evTail handler).
func (br *branch) tailRelease() {
	if br.port != nil {
		br.port.release(br)
	} else if br.ch.sender == br {
		br.ch.sender = nil
	}
	if br.injNI != nil {
		br.injNI.streamDone(br.injLast)
	}
}

// outPort is a switch output port with wormhole-style allocation: a worm
// holds it from header grant until its tail passes; contenders queue FIFO.
type outPort struct {
	net    *Network
	sw     topology.SwitchID
	port   int
	ch     *channel
	holder *branch
	dead   bool // the port's channel (or switch) has failed
	queue  []*portRequest
}

// portRequest is an arbitration entry. Adaptive unicast routing files one
// request against several candidate ports; the first to free up wins and
// the request is lazily removed from the rest.
type portRequest struct {
	br *branch
	// phases[i] is the up*/down* phase the worm assumes if ports[i] wins.
	ports   []*outPort
	phases  []updown.Phase
	granted bool
}

// --- input buffer ---

func (b *inputBuf) flitArrive(w *worm) {
	if w.dead {
		// Straggler flit of a torn-down worm: drain it. The sender already
		// spent a credit on it; hand the credit straight back if the
		// feeding channel is still alive so the buffer slot never leaks.
		b.net.stats.FlitsDropped++
		if b.upstream != nil && !b.upstream.dead {
			b.creditReturn()
		}
		return
	}
	b.used++
	if b.used > b.cap {
		panic(fmt.Sprintf("sim: input buffer %d/%d overflow (credit accounting bug)", b.sw, b.port))
	}
	var o *occupant
	if n := len(b.occupants); n > 0 && b.occupants[n-1].w == w {
		o = b.occupants[n-1]
	} else {
		o = b.net.getOccupant()
		o.buf = b
		o.w = w
		wormRef(w) // the occupant's assembly leg; released at recycle
		b.occupants = append(b.occupants, o)
	}
	o.arrived++
	if o.arrived > w.len {
		panic("sim: more flits arrived than worm length")
	}
	if o == b.occupants[0] && !o.routed && !o.routing {
		o.routing = true
		b.net.queue.PostAfter(b.net.params.RoutingDelay, evRoute, o, 0)
	}
	if o.routed {
		// New flit may unblock consumer branches.
		for _, br := range o.branches {
			br.schedulePump(b.net.queue.Now())
		}
		o.advanceEviction()
	}
}

// advanceEviction frees buffer slots whose flits every consumer branch has
// forwarded (or never needed), returning credits upstream, and retires
// the occupant once it is fully drained.
func (o *occupant) advanceEviction() {
	if !o.routed || o.killed {
		return
	}
	o.buf.postCredits(o.evict())
	o.maybeComplete()
}

// evict frees the buffer slots advanceEviction would free and returns how
// many; it posts nothing, leaving the credits to the caller. o must be
// routed and not killed, as a live branch's occupant always is.
func (o *occupant) evict() int {
	start := o.evicted
	for o.evicted < o.arrived {
		i := o.evicted
		freed := true
		for _, br := range o.branches {
			if br.elastic {
				continue // drains from the replication buffer instead
			}
			if i >= br.offset && br.sent <= i-br.offset {
				freed = false
				break
			}
		}
		if !freed {
			break
		}
		o.evicted++
	}
	k := o.evicted - start
	o.buf.used -= k
	return k
}

// retiring reports whether maybeComplete would retire o now: o is the
// live head of its buffer and every one of its flits has been evicted.
func (o *occupant) retiring() bool {
	b := o.buf
	return !o.killed && !o.detached && o.evicted == o.w.len && len(b.occupants) > 0 && b.occupants[0] == o
}

// maybeComplete retires a fully drained head occupant and starts routing
// the next resident worm.
func (o *occupant) maybeComplete() {
	if !o.retiring() {
		return
	}
	b := o.buf
	b.occupants = b.occupants[1:]
	o.detached = true
	b.net.tryRecycleOccupant(o)
	b.routeHead()
}

// routeHead starts routing the buffer's head occupant once its header has
// begun arriving, unless it is already routed or routing.
func (b *inputBuf) routeHead() {
	if len(b.occupants) == 0 {
		return
	}
	if next := b.occupants[0]; next.arrived > 0 && !next.routed && !next.routing {
		next.routing = true
		b.net.queue.PostAfter(b.net.params.RoutingDelay, evRoute, next, 0)
	}
}

// --- routing ---

// route flips the occupant's routing flags and hands the header to the
// worm-advancement dispatcher (the evRoute handler).
func (o *occupant) route() {
	n := o.buf.net
	o.routing = false
	if o.killed {
		// The pending routing event was the last thing pinning a
		// torn-down occupant.
		n.tryRecycleOccupant(o)
		return
	}
	o.routed = true
	n.advanceWorm(o)
}

// wormPlanner emits the branches advancing one worm kind past a switch.
type wormPlanner func(*Network, *occupant, topology.SwitchID, *worm)

// wormPlanners is advanceWorm's dispatch table, indexed by WormKind.
var wormPlanners = [...]wormPlanner{
	WormUnicast: (*Network).planUnicast,
	WormTree:    (*Network).planTree,
	WormPath:    (*Network).planPath,
}

// branchSpec describes one replication output a planner wants: the child
// worm it forwards, the flit window it starts at, its delivery flavor,
// and the candidate output ports. emitBranch turns specs into filed
// arbitration requests identically for all three worm kinds.
type branchSpec struct {
	child    *worm
	offset   int
	elastic  bool
	drops    []topology.NodeID
	ports    []int
	phases   []updown.Phase
	adaptive bool // shuffle candidates (the simulator's adaptivity tie-break)
}

// emitBranch realizes one branchSpec: the shared create-and-file step
// behind every worm kind's advancement. spec.ports/phases may live in
// decision scratch; fileRequest copies before retaining.
func (n *Network) emitBranch(o *occupant, s topology.SwitchID, spec branchSpec) {
	br := n.newBranch(o, spec.child, spec.offset)
	br.elastic = spec.elastic
	br.drops = spec.drops
	if spec.adaptive {
		n.fileAdaptive(br, s, spec.ports, spec.phases)
		return
	}
	n.fileRequest(br, s, spec.ports, spec.phases)
}

// advanceWorm is the single worm-advancement dispatcher: it traces the
// routing decision, runs the worm kind's planner, applies the tree
// scheme's central-buffer elasticity, and lets absorbed header flits
// evict. Unicast, tree replication and path stops all flow through here.
func (n *Network) advanceWorm(o *occupant) {
	s := o.buf.sw
	w := o.w
	n.trace(TraceEvent{Kind: TraceRoute, Worm: w.id, Msg: w.msg.ID, Pkt: w.pkt, Switch: s, Port: o.buf.port})
	wormPlanners[w.kind](n, o, s, w)
	// Tree-worm replication passes through the switch's central buffer
	// (ISCA'97): wherever the worm split, every branch drains from that
	// buffer.
	if w.kind == WormTree && len(o.branches) > 1 {
		for _, b := range o.branches {
			b.elastic = true
		}
	}
	// Flits that no branch consumes (absorbed headers, or a worm with no
	// outputs) can free up immediately.
	o.advanceEviction()
}

// singleSpec loads the one-port scratch pair for single-candidate specs,
// avoiding a slice-literal escape per branch.
func (n *Network) singleSpec(p int, ph updown.Phase) ([]int, []updown.Phase) {
	n.scr.onePort[0] = p
	n.scr.onePhase[0] = ph
	return n.scr.onePort[:], n.scr.onePhase[:]
}

func (n *Network) planUnicast(o *occupant, s topology.SwitchID, w *worm) {
	home := n.topo.NodeSwitch[w.dest]
	if home == s {
		ports, phases := n.singleSpec(n.rt.NodePortAt(s, w.dest), w.phase)
		n.emitBranch(o, s, branchSpec{child: w.child(n, 0),
			ports: ports, phases: phases})
		return
	}
	ports, phases := n.nextHops(s, w.phase, home)
	if len(ports) == 0 {
		n.routeFailure(o, s, fmt.Sprintf("no legal route for %v phase %v", w, w.phase))
		return
	}
	n.emitBranch(o, s, branchSpec{child: w.child(n, 0),
		ports: ports, phases: phases, adaptive: true})
}

func (n *Network) planTree(o *occupant, s topology.SwitchID, w *worm) {
	remaining := n.getDset()
	remaining.copyFrom(w.destSet)
	// Local deliveries: destinations attached to this switch drop here
	// regardless of the climb state.
	if n.localIntersects(remaining, s) {
		for _, node := range n.nodesAt[s] {
			if !remaining.contains(int(node)) {
				continue
			}
			remaining.remove(int(node))
			ds := n.getDset()
			ds.add(int(node))
			ports, phases := n.singleSpec(n.rt.NodePortAt(s, node), w.phase)
			n.emitBranch(o, s, branchSpec{child: w.childSet(n, 0, ds),
				ports: ports, phases: phases})
		}
	}
	if remaining.empty() {
		n.putDset(remaining)
		return
	}
	if remaining.subsetOfBits(n.rt.Cover[s]) {
		// Replicate down: partition the remaining set across down ports.
		parts, ok := n.partitionDownAdaptive(s, remaining)
		if !ok {
			n.routeFailure(o, s, fmt.Sprintf("down partition cannot cover %v", remaining.indices()))
			n.putDset(remaining)
			return
		}
		n.putDset(remaining)
		for _, ps := range parts {
			// The partition subset becomes the child's destination set
			// (pooled; ownership transfers to the child worm).
			c := w.childSet(n, 0, ps.sub)
			c.phase = updown.PhaseDown
			ports, phases := n.singleSpec(ps.port, updown.PhaseDown)
			n.emitBranch(o, s, branchSpec{child: c,
				ports: ports, phases: phases})
		}
		return
	}
	if w.phase == updown.PhaseDown {
		n.routeFailure(o, s, fmt.Sprintf("tree worm %v descended to a switch that cannot cover %v", w, remaining.indices()))
		n.putDset(remaining)
		return
	}
	if n.params.EarlyTreeBranch {
		// Ablation variant: peel off down-coverable subsets while climbing.
		for _, p := range n.downPorts[s] {
			if !remaining.intersectsBits(n.rt.DownReach[s][p]) {
				continue
			}
			sub := n.getDset()
			remaining.intersectInto(sub, n.rt.DownReach[s][p])
			remaining.differenceWith(sub)
			c := w.childSet(n, 0, sub)
			c.phase = updown.PhaseDown
			ports, phases := n.singleSpec(p, updown.PhaseDown)
			n.emitBranch(o, s, branchSpec{child: c,
				ports: ports, phases: phases})
		}
		if remaining.empty() {
			n.putDset(remaining)
			return
		}
	}
	// Climb: continue on an up port along a shortest up-path to a switch
	// that covers the remainder (the paper's "travel adaptively to a least
	// common ancestor switch using links in the up direction").
	ports := n.climbPorts(s, remaining)
	if len(ports) == 0 {
		n.routeFailure(o, s, fmt.Sprintf("tree worm %v stuck: no up port reaches a switch covering %v", w, remaining.indices()))
		n.putDset(remaining)
		return
	}
	c := w.childSet(n, 0, remaining) // remaining's ownership moves to the child
	phases := n.scr.phaseScratch[:0]
	for range ports {
		phases = append(phases, updown.PhaseUp)
	}
	n.scr.phaseScratch = phases
	n.emitBranch(o, s, branchSpec{child: c,
		ports: ports, phases: phases, adaptive: true})
}

func (n *Network) planPath(o *occupant, s topology.SwitchID, w *worm) {
	if len(w.path) == 0 {
		panic("sim: path worm with no remaining segments")
	}
	seg := w.path[0]
	if seg.Switch != s {
		// In transit toward the segment's stop switch: ordinary adaptive
		// unicast routing, header intact.
		ports, phases := n.rt.NextHops(s, w.phase, seg.Switch)
		if len(ports) == 0 {
			n.routeFailure(o, s, fmt.Sprintf("path worm %v has no legal route toward switch %d", w, seg.Switch))
			return
		}
		n.emitBranch(o, s, branchSpec{child: w.child(n, 0),
			ports: ports, phases: phases, adaptive: true})
		return
	}
	// Stop switch: the segment's node-ID and port-mask fields are stripped
	// here; drops and the continuation forward the shortened stream.
	skip := PathSegFlits(n.topo.PortsPerSwitch, n.topo.NumNodes, n.topo.NumSwitches)
	if skip > w.len {
		panic("sim: path worm shorter than its own header")
	}
	rest := w.path[1:]
	for _, d := range seg.Drops {
		p := n.rt.NodePortAt(s, d)
		if p < 0 {
			panic(fmt.Sprintf("sim: path worm drop %d not attached to switch %d", d, s))
		}
		c := w.child(n, skip)
		c.path = rest
		// Drops are buffered deliveries: the worm never stalls on them
		// (the multi-drop mechanism's delivery buffering); only the
		// continuation below is synchronous.
		n.emitBranch(o, s, branchSpec{child: c, offset: skip,
			elastic: true, drops: []topology.NodeID{d},
			ports: []int{p}, phases: []updown.Phase{w.phase}})
	}
	if seg.NextPort >= 0 {
		// The continuation port was legal when the plan was built; a fault
		// plus reconfiguration can have killed the link or flipped its
		// orientation since.
		dir := n.rt.Dirs[s][seg.NextPort]
		if dir == updown.DirNone {
			n.routeFailure(o, s, fmt.Sprintf("path worm %v continues out port %d, which is no longer a legal switch port", w, seg.NextPort))
			return
		}
		if dir == updown.DirUp && w.phase == updown.PhaseDown {
			n.routeFailure(o, s, fmt.Sprintf("path worm %v would make an up turn after down out port %d", w, seg.NextPort))
			return
		}
		next := w.phase
		if dir == updown.DirDown {
			next = updown.PhaseDown
		}
		if len(rest) == 0 {
			panic("sim: path worm continues with no remaining segments")
		}
		c := w.child(n, skip)
		c.path = rest
		c.phase = next
		n.emitBranch(o, s, branchSpec{child: c, offset: skip,
			ports: []int{seg.NextPort}, phases: []updown.Phase{next}})
	}
}

// portSet is one branch of a down partition.
type portSet struct {
	port int
	sub  dset
}

// partitionDownAdaptive splits a covered destination set across down
// ports, assigning every destination to exactly one branch inside its
// port's DownReach. The greedy choice takes the largest overlap first,
// so copies stay few, and breaks overlap ties with the arbitration RNG.
// Reachability strings of parallel down paths overlap heavily in dense
// networks; a deterministic tie-break would funnel every worm through
// the same ports, while real switches are free to pick any covering
// port. The result is an ordered slice — callers create branches in
// this order, and branch order feeds arbitration, so it must not depend
// on map iteration. ok is false when the down ports cannot cover the
// set — impossible under the Covers precondition on healthy routing
// state, but reachable when a fault invalidates the reachability
// strings mid-run.
func (n *Network) partitionDownAdaptive(s topology.SwitchID, set dset) ([]portSet, bool) {
	c := &n.cache
	c.sync(n.routingEpoch)
	var key partKey
	var cached *partEntry
	if !c.disabled {
		key = partKey{sw: int32(s), fp: destFP(set)}
		if e := c.part[key]; e != nil && set.equalRuns(e.key) {
			cached = e
			if !e.tied {
				// Hit: burn the identical shuffle the miss path draws so
				// the arbitration RNG stream stays byte-for-byte equal,
				// then hand out pooled copies of the cached partition.
				n.arb.Shuffle(len(n.downPorts[s]), func(i, j int) {})
				out := n.scr.partScratch[:0]
				for i, p := range e.ports {
					sub := n.getDset()
					sub.copyFromRuns(e.subs[i])
					out = append(out, portSet{port: int(p), sub: sub})
				}
				n.scr.partScratch = out
				return out, true
			}
			// Tied entry: the greedy choice depends on the shuffle, so
			// recompute in full (which consumes the shuffle naturally).
		}
	}
	remaining := n.getDset()
	remaining.copyFrom(set)
	downs := append(n.scr.downScratch[:0], n.downPorts[s]...)
	n.scr.downScratch = downs
	n.arb.Shuffle(len(downs), func(i, j int) { downs[i], downs[j] = downs[j], downs[i] })
	out := n.scr.partScratch[:0]
	tied := false
	for !remaining.empty() {
		best, bestCount, dup := -1, 0, false
		for _, p := range downs {
			if n.scr.usedPorts[p] {
				continue
			}
			c := remaining.andCountBits(n.rt.DownReach[s][p])
			if c > bestCount {
				best, bestCount, dup = p, c, false
			} else if c == bestCount && c > 0 {
				dup = true
			}
		}
		if best == -1 {
			for _, ps := range out {
				n.scr.usedPorts[ps.port] = false
				n.putDset(ps.sub)
			}
			n.putDset(remaining)
			n.scr.partScratch = out[:0]
			return nil, false
		}
		if dup {
			tied = true
		}
		sub := n.getDset()
		remaining.intersectInto(sub, n.rt.DownReach[s][best])
		n.scr.usedPorts[best] = true
		out = append(out, portSet{port: best, sub: sub})
		remaining.differenceWith(sub)
	}
	for _, ps := range out {
		n.scr.usedPorts[ps.port] = false
	}
	n.putDset(remaining)
	n.scr.partScratch = out
	if !c.disabled && cached == nil {
		// First sighting of this (switch, set): record it. Untied
		// partitions store cache-owned run snapshots; tied ones store only
		// the flag so future calls go straight to the recomputation.
		if len(c.part) >= c.partCap {
			clear(c.part)
		}
		e := &partEntry{key: set.cloneRuns(), tied: tied}
		if !tied {
			e.ports = make([]int32, len(out))
			e.subs = make([]*destset.Runs, len(out))
			for i, ps := range out {
				e.ports[i] = int32(ps.port)
				e.subs[i] = ps.sub.cloneRuns()
			}
		}
		c.part[key] = e
	}
	return out, true
}

// climbPorts returns the up ports of s that begin a shortest all-up path to
// a switch covering set (reverse BFS from all covering switches over up
// links, memoized per destination set by the route cache). The result
// lives in decision scratch.
func (n *Network) climbPorts(s topology.SwitchID, set dset) []int {
	dist := n.climbDist(set)
	if dist[s] <= 0 {
		return nil // s covers already (caller bug) or nothing reachable
	}
	out := n.scr.portScratch[:0]
	for _, pp := range n.upAdj[s] {
		if dist[pp.sw] == dist[s]-1 {
			out = append(out, pp.port)
		}
	}
	n.scr.portScratch = out
	return out
}

// --- branches and arbitration ---

// newBranch pulls a pooled branch for child's stream. A nil occupant
// means NI injection (all flits already in NI memory). The branch holds
// a reference on its worm until the post-done quarantine reclaims it.
func (n *Network) newBranch(o *occupant, child *worm, offset int) *branch {
	br := n.getBranch()
	br.occ = o
	br.w = child
	br.offset = offset
	wormRef(child)
	if o != nil {
		o.branches = append(o.branches, br)
		o.live++
	}
	return br
}

// fileAdaptive shuffles candidate ports (the simulator's adaptivity
// tie-break) and files the request. ports/phases must be mutable
// (scratch or freshly built), never cached storage.
func (n *Network) fileAdaptive(br *branch, s topology.SwitchID, ports []int, phases []updown.Phase) {
	n.arb.Shuffle(len(ports), func(i, j int) {
		ports[i], ports[j] = ports[j], ports[i]
		phases[i], phases[j] = phases[j], phases[i]
	})
	n.fileRequest(br, s, ports, phases)
}

// fileRequest arbitrates br onto one of the candidate ports of switch s.
// The common case — some candidate is free — grants directly without
// materializing a portRequest; only genuine contention allocates one
// (with owned copies of the candidate list, since ports/phases may be
// decision scratch).
func (n *Network) fileRequest(br *branch, s topology.SwitchID, ports []int, phases []updown.Phase) {
	sw := n.switches[s]
	if n.faulted {
		// Routing state can lag a fault by up to the detection delay: drop
		// candidate ports that have died since the tables were computed.
		live, livePhases := ports[:0], phases[:0]
		for i, p := range ports {
			if op := sw.outPorts[p]; op != nil && op.dead {
				continue
			}
			live = append(live, p)
			livePhases = append(livePhases, phases[i])
		}
		ports, phases = live, livePhases
		if len(ports) == 0 {
			n.deadEndBranch(br)
			return
		}
	}
	for i, p := range ports {
		op := n.outPort(s, p)
		if op == nil {
			panic(fmt.Sprintf("sim: request against unwired port (switch %d)", br.occ.buf.sw))
		}
		if op.holder == nil {
			op.grantTo(br, phases[i])
			return
		}
	}
	if r := n.obsRec; r != nil {
		r.ArbConflict(int32(s))
	}
	outs := make([]*outPort, len(ports))
	owned := make([]updown.Phase, len(phases))
	for i, p := range ports {
		outs[i] = sw.outPorts[p]
		owned[i] = phases[i]
	}
	req := &portRequest{br: br, ports: outs, phases: owned}
	br.req = req
	for _, op := range outs {
		op.queue = append(op.queue, req)
	}
}

// grant hands the port to request index i and starts the branch's stream.
func (o *outPort) grant(req *portRequest, i int) {
	req.granted = true
	o.grantTo(req.br, req.phases[i])
}

// grantTo gives br the port with the worm assuming phase ph — the shared
// tail of queued grants and the allocation-free direct grant.
func (o *outPort) grantTo(br *branch, ph updown.Phase) {
	br.port = o
	br.ch = o.ch
	br.w.phase = ph
	o.holder = br
	o.ch.sender = br
	o.net.trace(TraceEvent{Kind: TraceGrant, Worm: br.w.id, Msg: br.w.msg.ID, Pkt: br.w.pkt, Switch: o.sw, Port: o.port})
	br.schedulePump(o.net.queue.Now() + o.net.params.CrossbarDelay)
}

// release frees the port after a tail passes and grants the next waiter.
func (o *outPort) release(br *branch) {
	if o.holder != br {
		// A killed branch's deferred tail-release can trail the teardown
		// that already force-released the port; that is not a bug.
		if br.w.dead || o.dead {
			return
		}
		panic("sim: releasing a port held by another branch")
	}
	o.holder = nil
	if o.ch.sender == br {
		o.ch.sender = nil
	}
	if o.dead {
		return // no grants over a failed channel; the queue was failed over
	}
	for len(o.queue) > 0 {
		req := o.queue[0]
		o.queue = o.queue[1:]
		if req.granted {
			continue // won elsewhere
		}
		for i, p := range req.ports {
			if p == o {
				o.grant(req, i)
				return
			}
		}
	}
}

// --- flit pump ---

// schedulePump arranges for pump to run at time t (or now, whichever is
// later); redundant calls while a pump is pending are no-ops.
func (br *branch) schedulePump(t event.Time) {
	if br.pumping || br.done || br.ch == nil {
		return
	}
	br.pumping = true
	q := &br.net.queue
	if now := q.Now(); t < now {
		t = now
	}
	q.Post(t, evPump, br, 0)
}

// flitHop is the evFlit handler: one fused non-tail flit hop. It runs
// the handlers the unfused hop posts into this cycle, in posting order:
// evDeliver, one evCredit per slot the pump freed, then evPump.
func (br *branch) flitHop(credits int) {
	b := br.fuseBuf
	br.deliver()
	for ; credits > 0; credits-- {
		b.creditReturn()
	}
	br.pump()
}

// pump attempts to send one flit; it self-schedules while streaming and
// goes dormant (woken by flit arrival or credit return) when blocked.
// A non-tail flit at LinkDelay 1 is posted as one fused evFlit record
// unless its occupant retires on this hop or StallCycles is 1; every
// other hop posts its evDeliver, evCredit and evPump (or tail) events
// separately.
func (br *branch) pump() {
	br.pumping = false
	if br.done {
		return
	}
	net := br.net
	ch := br.ch
	if ch.dead || br.w.dead {
		// The channel failed under us (or the worm was torn down) between
		// scheduling and running this pump.
		net.deadEndBranch(br)
		return
	}
	now := net.queue.Now()
	if now < ch.lineFree {
		br.schedulePump(ch.lineFree)
		return
	}
	if br.occ != nil && br.occ.arrived <= br.offset+br.sent {
		return // flit not here yet; flitArrive will wake us
	}
	if ch.toSwitch {
		if ch.credits == 0 {
			if r := net.obsRec; r != nil {
				r.CreditStall(ch.obsID)
			}
			return // no buffer space; credit return will wake us
		}
		ch.credits--
	}
	ch.lineFree = now + 1
	br.sent++
	ch.busyFlits++
	net.stats.FlitHops++
	w := br.w
	o := br.occ
	freed := 0
	if o != nil {
		freed = o.evict()
	}
	if br.sent < w.len && net.params.LinkDelay == 1 && net.params.StallCycles != 1 && (o == nil || !o.retiring()) {
		// Fused hop: the deliver, the freed credits and the next pump
		// would be posted back to back into cycle now+1, with nothing
		// able to land between them, so one record runs all three. A
		// one-cycle stall watchdog could fire between them, so it keeps
		// them apart (DESIGN.md §12).
		br.pumping = true
		if o != nil {
			br.fuseBuf = o.buf
		}
		net.queue.PostFused(now+1, evFlit, br, int64(freed), freed+2)
		return
	}
	net.queue.Post(now+net.params.LinkDelay, evDeliver, br, 0)
	if o != nil {
		o.buf.postCredits(freed)
		o.maybeComplete()
	}
	if br.sent == w.len {
		br.done = true
		if br.port != nil {
			net.trace(TraceEvent{Kind: TraceTail, Worm: w.id, Msg: w.msg.ID, Pkt: w.pkt, Switch: br.port.sw, Port: br.port.port})
		}
		net.queue.PostAfter(1, evTail, br, 0)
		net.queue.PostAfter(net.reclaimAfter, evReclaim, br, 0)
		if br.occ != nil {
			// Complete the occupant before detaching: detaching can
			// recycle it, and maybeComplete must read its live state.
			br.occ.maybeComplete()
			net.detachBranch(br)
		}
		return
	}
	br.schedulePump(now + 1)
}
