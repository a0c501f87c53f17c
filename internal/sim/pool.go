package sim

import (
	"mcastsim/internal/destset"
	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// This file implements the simulator's free lists. A Network runs on one
// goroutine, so the pools are plain slices with LIFO reuse — no locking,
// no sync.Pool clearing at GC.
//
// Ownership and lifetime rules:
//
//   - Destination sets (*destset.Runs, universe NumNodes): owned by
//     exactly one worm (w.destSet) or held transiently by a planner.
//     getRuns returns a cleared set; putRuns recycles it. The route cache
//     keeps its own clones and never lends storage out (see
//     routecache.go).
//
//   - Worms are reference-counted. The legs are: the producing branch
//     (released when the branch is reclaimed after its quarantine), the
//     downstream occupant assembling the worm in an input buffer
//     (released when the occupant is recycled), and the destination NI
//     assembling the packet (taken at the first received flit, released
//     after NI receive processing or when the assembly is dropped). A
//     worm in an un-streamed burst has zero refs and is recycled directly
//     when the burst is dropped. Whoever drops the last leg recycles the
//     worm.
//
//   - Branches are time-quarantined: a branch goes done exactly once (the
//     pump tail or a fault kill), is spliced out of its occupant's branch
//     list immediately, and an evReclaim fires reclaimAfter cycles later —
//     strictly after every pending evPump/evDeliver/evFlit/evTail that
//     still names it — to release its worm ref and recycle it. A branch
//     whose fused hop joined another's evFlit record is named by its
//     predecessor's chain link rather than by a record of its own; the
//     link is cleared before the hop runs, one cycle after the post, so
//     the same horizon covers it. Splicing at done-time is safe: a done
//     branch never gates eviction (its window ends at the parent stream's
//     length) and schedulePump no-ops on it.
//
//   - Occupants are recycled when they are detached from their buffer
//     (head retirement or fault removal), have no pending evRoute, and no
//     live (undone) branch remains.
//
//   - Arbitration requests are queued at every candidate port and counted
//     there (queued). A grant or a kill marks one granted and clears its
//     branch's req, so only the port queues still name it; a release scan
//     or a severed channel pops it from a queue, and the last pop recycles
//     it.

// entityPools holds the free lists (see the ownership rules above).
type entityPools struct {
	runPool    []*destset.Runs
	wormPool   []*worm
	branchPool []*branch
	occPool    []*occupant
	burstPool  []*burst
	reqPool    []*portRequest
}

// scratchSpace is the per-decision scratch reused by the planners and
// arbitration so the steady-state routing path allocates nothing. Valid
// only within one routing decision; never retained.
type scratchSpace struct {
	onePort      [1]int
	onePhase     [1]updown.Phase
	portScratch  []int
	phaseScratch []updown.Phase
	downScratch  []updown.DownLink
	partScratch  []portSet
	usedPorts    []bool
	distScratch  []int32
	bfsQueue     []int32
	specScratch  WormSpec
}

func (sc *scratchSpace) init(t *topology.Topology) {
	sc.usedPorts = make([]bool, t.PortsPerSwitch)
	sc.distScratch = make([]int32, t.NumSwitches)
	sc.bfsQueue = make([]int32, 0, t.NumSwitches)
}

// reclaimQuarantine returns the branch quarantine horizon: an upper bound,
// in cycles, on how far past a branch's done-transition a pending event
// naming it can still fire (evPump <= max(CrossbarDelay,1), evDeliver <=
// LinkDelay, evFlit = +1, evTail = +1), plus slack.
func (n *Network) reclaimQuarantine() event.Time {
	h := n.params.LinkDelay
	if n.params.CrossbarDelay > h {
		h = n.params.CrossbarDelay
	}
	if n.params.RoutingDelay > h {
		h = n.params.RoutingDelay
	}
	if h < 1 {
		h = 1
	}
	return h + 2
}

// --- destination sets ---

// getRuns returns a cleared pooled destination set. A run list is sized
// by its run count, not the universe, so a rack-clustered set costs a few
// dozen bytes at any host count.
func (n *Network) getRuns() *destset.Runs {
	p := &n.pools
	if len(p.runPool) == 0 {
		return destset.NewRuns(n.topo.NumNodes)
	}
	r := p.runPool[len(p.runPool)-1]
	p.runPool = p.runPool[:len(p.runPool)-1]
	r.Clear()
	return r
}

func (n *Network) putRuns(r *destset.Runs) {
	n.pools.runPool = append(n.pools.runPool, r)
}

// --- worms ---

func (n *Network) getWorm() *worm {
	p := &n.pools
	if len(p.wormPool) == 0 {
		return &worm{}
	}
	w := p.wormPool[len(p.wormPool)-1]
	p.wormPool = p.wormPool[:len(p.wormPool)-1]
	return w
}

// recycleWorm returns an unreferenced worm (and its destination set) to
// the pools.
func (n *Network) recycleWorm(w *worm) {
	if w.refs != 0 {
		panic("sim: recycling a referenced worm")
	}
	if w.destSet != nil {
		n.putRuns(w.destSet)
	}
	*w = worm{}
	n.pools.wormPool = append(n.pools.wormPool, w)
}

// wormRef takes one reference leg.
func wormRef(w *worm) { w.refs++ }

// wormDecref releases one reference leg; dropping the last leg recycles
// the worm.
func (n *Network) wormDecref(w *worm) {
	w.refs--
	if w.refs > 0 {
		return
	}
	if w.refs < 0 {
		panic("sim: worm refcount underflow")
	}
	n.recycleWorm(w)
}

// --- branches ---

func (n *Network) getBranch() *branch {
	p := &n.pools
	if len(p.branchPool) == 0 {
		return &branch{net: n}
	}
	br := p.branchPool[len(p.branchPool)-1]
	p.branchPool = p.branchPool[:len(p.branchPool)-1]
	return br
}

// detachBranch splices a just-done branch out of its occupant's consumer
// list (callers guarantee br.occ != nil and br.done). The occupant may
// recycle here when this was its last live branch.
func (n *Network) detachBranch(br *branch) {
	o := br.occ
	for i, cand := range o.branches {
		if cand == br {
			o.branches = append(o.branches[:i], o.branches[i+1:]...)
			break
		}
	}
	o.live--
	n.tryRecycleOccupant(o)
}

// reclaimBranch is the evReclaim handler: the quarantine has elapsed, no
// pending event names this branch anymore, so its worm ref is released
// and the branch recycles.
func (n *Network) reclaimBranch(br *branch) {
	if br.pumping {
		// Unreachable by construction (a pending pump fires well inside
		// the quarantine and no-ops on done); leak to GC rather than
		// recycle under a live event.
		return
	}
	n.wormDecref(br.w)
	br.occ = nil
	br.w = nil
	br.elastic = false
	br.offset = 0
	br.sent = 0
	br.ch = nil
	br.port = nil
	br.done = false
	br.fuseBuf = nil
	br.req = nil
	br.drops = nil
	br.injNI = nil
	br.injLast = false
	n.pools.branchPool = append(n.pools.branchPool, br)
}

// --- arbitration requests ---

// getRequest returns a pooled arbitration entry with empty candidate
// lists.
func (n *Network) getRequest() *portRequest {
	p := &n.pools
	if len(p.reqPool) == 0 {
		return &portRequest{}
	}
	req := p.reqPool[len(p.reqPool)-1]
	p.reqPool = p.reqPool[:len(p.reqPool)-1]
	return req
}

// dropRequest records that one port queue let go of req; the last one
// recycles it. By then req is granted or killed, so no branch names it.
func (n *Network) dropRequest(req *portRequest) {
	if req.queued--; req.queued > 0 {
		return
	}
	if !req.granted {
		panic("sim: recycling an ungranted arbitration request")
	}
	req.br = nil
	req.ports = req.ports[:0]
	req.phases = req.phases[:0]
	req.granted = false
	n.pools.reqPool = append(n.pools.reqPool, req)
}

// --- occupants ---

func (n *Network) getOccupant() *occupant {
	p := &n.pools
	if len(p.occPool) == 0 {
		return &occupant{}
	}
	o := p.occPool[len(p.occPool)-1]
	p.occPool = p.occPool[:len(p.occPool)-1]
	return o
}

// tryRecycleOccupant recycles an occupant once it is out of its buffer,
// has no routing event in flight, and no live branch still reads it.
func (n *Network) tryRecycleOccupant(o *occupant) {
	if !o.detached || o.routing || o.live != 0 {
		return
	}
	n.wormDecref(o.w)
	o.buf = nil
	o.w = nil
	o.arrived = 0
	o.evicted = 0
	o.routed = false
	o.routing = false
	o.killed = false
	o.detached = false
	o.live = 0
	o.branches = o.branches[:0]
	n.pools.occPool = append(n.pools.occPool, o)
}

// --- bursts ---

func (n *Network) getBurst() *burst {
	p := &n.pools
	if len(p.burstPool) == 0 {
		return &burst{}
	}
	b := p.burstPool[len(p.burstPool)-1]
	p.burstPool = p.burstPool[:len(p.burstPool)-1]
	return b
}

func (n *Network) putBurst(b *burst) {
	b.owner = nil
	b.worms = b.worms[:0]
	b.next = 0
	n.pools.burstPool = append(n.pools.burstPool, b)
}
