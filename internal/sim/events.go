package sim

import (
	"mcastsim/internal/event"
	"mcastsim/internal/topology"
)

// Typed event kinds for the simulator's hot paths. Each kind replaces a
// closure that the old engine allocated per event; the actor is the
// pointer-shaped owning object and arg carries any small integer payload,
// so posting these is allocation-free (see internal/event).
//
// Adding a kind: pick the next constant, register its handler in
// registerKinds, and Post/PostAfter it with the owning object as actor.
// Kinds must stay below event.MaxKinds; cold one-shot callbacks ride
// the evSched kind (Network.Schedule, retry backoff).
const (
	// evPump advances one branch's flit stream (actor *branch).
	evPump event.Kind = iota + 1
	// evDeliver lands one flit at the branch's destination buffer or NI
	// after the link delay (actor *branch). Posted on its own only for a
	// tail flit, for a hop that retires its occupant, and for every hop
	// when LinkDelay > 1 or StallCycles = 1; every other hop's deliver
	// runs inside an evFlit.
	evDeliver
	// evCredit returns one buffer credit upstream (actor *inputBuf).
	// Posted on its own for slots freed outside a pump (flit arrival,
	// routing, teardown) and by the hops that post evDeliver on their
	// own; a fused hop's credits run inside its evFlit.
	evCredit
	// evRoute decodes a head occupant's header after the routing delay
	// (actor *occupant).
	evRoute
	// evTail releases the output port (or injection line) one cycle
	// after a branch's tail flit, then unwinds the NI injection stream
	// when the branch carries one (actor *branch).
	evTail
	// evMsgStart begins a message's source sends at its initiation time
	// (actor *Message).
	evMsgStart
	// evMsgTimeout aborts a reliable attempt that missed its deadline
	// (actor *Message).
	evMsgTimeout
	// evReconfig runs a routing recomputation if its detection epoch is
	// still current (actor nil, arg epoch).
	evReconfig
	// evFaultApply fails one scheduled link (actor nil, arg link index).
	evFaultApply
	// evSendSoft finishes the host send software overhead and starts the
	// per-packet DMA chain (actor *sendOp).
	evSendSoft
	// evSendDMA lands one outgoing packet in NI memory (actor *sendOp,
	// arg packet index).
	evSendDMA
	// evNICharged finishes the per-packet NI send processing for a burst
	// (actor *burst).
	evNICharged
	// evNIRecvProc finishes per-packet NI receive processing
	// (actor *worm, arg receiving node).
	evNIRecvProc
	// evNIRecvDMA lands one received packet in host memory
	// (actor *Message, arg receiving node).
	evNIRecvDMA
	// evDestDone completes a destination after the host receive overhead
	// (actor *Message, arg destination node).
	evDestDone
	// evReclaim recycles a done branch after its quarantine horizon,
	// once no pending pump/deliver/tail event can still name it
	// (actor *branch).
	evReclaim
	// evObsFlush samples the attached obs recorder and re-arms itself
	// while traffic is in flight (actor nil). Never posted when obs is
	// disabled, so the kind costs nothing on ordinary runs.
	evObsFlush
	// evMembership applies one scheduled group membership change
	// (actor *MembershipEvent). Never posted without registered groups.
	evMembership
	// evSched runs a one-shot control-plane closure (actor func()). This
	// is the typed home of Network.Schedule and the retry backoff — the
	// last closure-shaped state in the engine; everything else in the
	// queue is a fixed-shape record.
	evSched
	// evFlit is a chain of fused non-tail flit hops at LinkDelay 1, one
	// per branch from the actor along branch.chain, in posting order. Each
	// hop runs its evDeliver, then fuseCredits evCredit returns on its
	// fuseBuf, then its evPump, and counts as fuseCredits+2 events (actor
	// *branch; see branch.pump and DESIGN.md §12).
	evFlit
)

// registerKinds installs the network's jump table. Handlers close over n
// once per network; individual posts carry only the actor and arg.
func (n *Network) registerKinds() {
	q := &n.queue
	q.Register(evPump, func(a any, _ int64) { a.(*branch).pump() })
	q.Register(evDeliver, func(a any, _ int64) { a.(*branch).deliver() })
	q.Register(evCredit, func(a any, _ int64) { a.(*inputBuf).creditReturn() })
	q.Register(evRoute, func(a any, _ int64) { a.(*occupant).route() })
	q.Register(evTail, func(a any, _ int64) { a.(*branch).tailRelease() })
	q.Register(evMsgStart, func(a any, _ int64) { n.msgStart(a.(*Message)) })
	q.Register(evMsgTimeout, func(a any, _ int64) {
		if m := a.(*Message); !m.Done() {
			n.AbortMessage(m)
		}
	})
	q.Register(evReconfig, func(_ any, arg int64) {
		if int(arg) == n.reconfigEpoch {
			n.reconfigure()
		}
	})
	q.Register(evFaultApply, func(_ any, arg int64) { n.FailLink(int(arg)) })
	q.Register(evSendSoft, func(a any, _ int64) { a.(*sendOp).softwareDone() })
	q.Register(evSendDMA, func(a any, arg int64) { a.(*sendOp).dmaDone(int(arg)) })
	q.Register(evNICharged, func(a any, _ int64) { a.(*burst).charged() })
	q.Register(evNIRecvProc, func(a any, arg int64) {
		n.hosts[arg].ni.recvProcessed(a.(*worm))
	})
	q.Register(evNIRecvDMA, func(a any, arg int64) {
		n.hosts[arg].ni.hostPacketArrived(a.(*Message))
	})
	q.Register(evDestDone, func(a any, arg int64) {
		n.destDone(a.(*Message), topology.NodeID(arg))
	})
	q.Register(evReclaim, func(a any, _ int64) { n.reclaimBranch(a.(*branch)) })
	q.Register(evObsFlush, func(_ any, _ int64) { n.obsTick() })
	q.Register(evMembership, func(a any, _ int64) { n.applyMembership(a.(*MembershipEvent)) })
	q.Register(evSched, func(a any, _ int64) { a.(func())() })
	q.Register(evFlit, func(a any, _ int64) {
		// Clear each link before its hop runs: the hop's pump can post the
		// branch's next hop, and a later hop of this chain may then join
		// behind it, taking a fresh link that must not be cleared.
		for br := a.(*branch); br != nil; {
			next := br.chain
			br.chain = nil
			br.flitHop()
			br = next
		}
	})
}
