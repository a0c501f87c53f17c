package sim

import (
	"fmt"
	"slices"

	"mcastsim/internal/event"
	"mcastsim/internal/topology"
)

// ni models one host's network interface together with the host-side
// resources involved in messaging: the host CPU (per-message software
// overheads o_s/o_r), the NI processor (per-packet overheads o_ni), and the
// shared I/O bus moving packets between host memory and NI memory by DMA.
// Each is a serially reusable resource tracked by a next-free time.
type ni struct {
	net  *Network
	node topology.NodeID
	inj  *channel // injection line into the home switch

	hostFree event.Time
	niFree   event.Time
	busFree  event.Time

	// Injection: a burst is one packet's worth of outgoing worms — a
	// single worm for ordinary sends, or one replica per NI-tree child
	// when the smart NI replicates a packet. A burst occupies one NI
	// buffer slot (the packet is stored once) and charges the NI
	// processor once; its replicas serialize on the injection line.
	// ready holds bursts whose NI processing has finished; injWait holds
	// bursts deferred by a full buffer (when NIInjectBufferPackets > 0).
	ready     []*burst
	injWait   []*burst
	injHeld   int
	streaming bool
	deferred  int32 // bursts deferred by a full buffer, cumulative; int32 to fit streaming's padding (TestHotStructSizes)

	// Reception state. rxWorm is the worm being assembled in NI memory
	// and rxCount its flits so far: the ejection channel is a wormhole
	// circuit, held by one branch from header grant to tail release, so
	// an NI assembles at most one worm at a time. The maps stay nil until
	// their first insert: most NIs of a large network never receive, and
	// reads, len, delete and range all work on a nil map.
	rxWorm  *worm
	rxCount int
	rxMsgs  map[*Message]int // packets DMA'd to host per message
	// rxHeld counts packets assembled at the NI per message, for the
	// store-and-forward ablation (Params.NIStoreAndForward).
	rxHeld map[*Message]int
}

// reserve books dur cycles on a serially reusable resource no earlier than
// now, returning the completion time.
func reserve(free *event.Time, now, dur event.Time) event.Time {
	start := *free
	if now > start {
		start = now
	}
	*free = start + dur
	return *free
}

// --- send side ---

// sendOp is one in-flight hostSend: a single record carried by the
// evSendSoft and evSendDMA events covering every packet of the send (the
// closure engine allocated one callback per packet on this path).
type sendOp struct {
	x    *ni
	m    *Message
	spec *WormSpec // nil for the NI-based scheme's source send
}

// hostSend initiates one message-send operation: o_s on the host CPU, then
// per-packet DMA to the NI. spec == nil means this is the NI-based scheme's
// source send: each packet, once in NI memory, is replicated to the
// source's children (paper §3.2.1). Callable only from within an event.
func (x *ni) hostSend(m *Message, spec *WormSpec) {
	n := x.net
	softDone := reserve(&x.hostFree, x.net.queue.Now(), n.params.OHostSend)
	x.net.queue.Post(softDone, evSendSoft, &sendOp{x: x, m: m, spec: spec}, 0)
}

// softwareDone runs when the host send software overhead finishes (the
// evSendSoft handler): book the bus for every packet's DMA into NI memory.
func (op *sendOp) softwareDone() {
	x, m := op.x, op.m
	n := x.net
	cur := x.net.queue.Now()
	for pkt := 0; pkt < m.Packets; pkt++ {
		bytes := n.payloadFlits(m, pkt)
		dmaDone := reserve(&x.busFree, cur, n.params.BusCycles(bytes))
		x.net.queue.Post(dmaDone, evSendDMA, op, int64(pkt))
	}
}

// dmaDone runs when packet pkt lands in NI memory (the evSendDMA
// handler): hand the packet's worm burst to the injection side.
func (op *sendOp) dmaDone(pkt int) {
	x := op.x
	if op.spec == nil {
		x.admitBurst(x.replicaBurst(op.m, pkt))
		return
	}
	b := x.net.getBurst()
	b.worms = append(b.worms, x.net.newWorm(op.m, op.spec, pkt))
	x.admitBurst(b)
}

// burst is one packet's outgoing worm set sharing an NI buffer slot and a
// single NI processing charge.
type burst struct {
	owner *ni // set when the burst is charged; the evNICharged handler's NI
	worms []*worm
	next  int
}

// replicaBurst builds the NI-tree replicas of one packet for this node's
// children.
func (x *ni) replicaBurst(m *Message, pkt int) *burst {
	kids := m.Plan.NITree[x.node]
	b := x.net.getBurst()
	for _, kid := range kids {
		// Unicast specs are consumed by newWorm, never retained, so the
		// scratch spec avoids one allocation per replica.
		x.net.scr.specScratch = WormSpec{Kind: WormUnicast, Dest: kid}
		b.worms = append(b.worms, x.net.newWorm(m, &x.net.scr.specScratch, pkt))
	}
	return b
}

// admitBurst takes an NI buffer slot for b (deferring when the buffer is
// bounded and full) and charges the per-packet NI send overhead.
func (x *ni) admitBurst(b *burst) {
	limit := x.net.params.NIInjectBufferPackets
	if limit > 0 && (x.injHeld >= limit || len(x.injWait) > 0) {
		x.deferred++
		x.injWait = append(x.injWait, b)
		return
	}
	x.injHeld++
	x.chargeAndReady(b)
}

func (x *ni) chargeAndReady(b *burst) {
	b.owner = x
	procDone := reserve(&x.niFree, x.net.queue.Now(), x.net.params.ONISend)
	x.net.queue.Post(procDone, evNICharged, b, 0)
}

// charged runs when a burst's NI send processing finishes (the
// evNICharged handler): queue it for injection and kick the stream.
func (b *burst) charged() {
	x := b.owner
	x.ready = append(x.ready, b)
	if !x.streaming {
		x.startStream()
	}
}

// startStream begins injecting the next ready worm on the injection line.
func (x *ni) startStream() {
	b := x.ready[0]
	w := b.worms[b.next]
	b.next++
	lastOfBurst := b.next == len(b.worms)
	if lastOfBurst {
		x.ready = slices.Delete(x.ready, 0, 1)
		x.net.putBurst(b) // every worm is streamed; no list names b anymore
	}
	x.streaming = true
	br := x.net.newBranch(nil, w, 0)
	br.ch = x.inj
	br.injNI = x
	br.injLast = lastOfBurst
	x.inj.sender = br
	x.net.stats.PacketsInjected++
	x.net.trace(TraceEvent{Kind: TraceInject, Worm: w.id, Msg: w.msg.ID, Pkt: w.pkt, Node: x.node})
	br.schedulePump(x.net.queue.Now())
}

// streamDone unwinds the injection line after a stream's tail (or its
// kill): frees the buffer slot on the burst's last worm, promotes one
// deferred burst, and starts the next ready stream.
func (x *ni) streamDone(last bool) {
	x.streaming = false
	if last {
		x.injHeld--
		if len(x.injWait) > 0 {
			next := x.injWait[0]
			x.injWait = slices.Delete(x.injWait, 0, 1)
			x.injHeld++
			x.chargeAndReady(next)
		}
	}
	if len(x.ready) > 0 {
		x.startStream()
	}
}

// --- receive side ---

// flitArrive accepts one flit of w from the ejection channel.
func (x *ni) flitArrive(w *worm) {
	if w.dead {
		// Straggler of a torn-down worm; the partial packet was discarded.
		x.net.stats.FlitsDropped++
		return
	}
	x.net.stats.FlitsDelivered++
	if x.rxWorm != w {
		if x.rxWorm != nil {
			panic(fmt.Sprintf("sim: NI %d received a flit of worm %d while assembling worm %d", x.node, w.id, x.rxWorm.id))
		}
		x.rxWorm = w
		wormRef(w) // the NI assembly leg; released after receive processing
	}
	x.rxCount++
	if x.rxCount == w.len {
		x.rxWorm, x.rxCount = nil, 0
		x.packetArrived(w)
	}
}

// dropAssembly abandons the worm being assembled and returns it (nil when
// there is none) with its NI assembly leg still held; the caller releases
// the leg once done reading the worm.
func (x *ni) dropAssembly() *worm {
	w := x.rxWorm
	x.rxWorm, x.rxCount = nil, 0
	return w
}

// packetArrived runs when a packet has fully assembled in NI memory: per-
// packet NI receive processing, then concurrently (a) replica injection to
// NI-tree children and (b) DMA to host memory; the receiving host's o_r is
// charged once, after the message's last packet lands (paper §3.2.1: the
// smart NI hides the host receive overhead and eliminates the host send
// overhead at intermediate destinations).
func (x *ni) packetArrived(w *worm) {
	n := x.net
	m := w.msg
	if m.Failed(x.node) {
		// This destination was already declared failed (another packet of
		// the message died); a stray complete packet does not resurrect
		// it — the retransmission layer owns the remainder.
		x.net.wormDecref(w) // no receive processing will release the NI leg
		return
	}
	x.net.stats.PacketsAtNI++
	n.trace(TraceEvent{Kind: TraceDeliver, Worm: w.id, Msg: w.msg.ID, Pkt: w.pkt, Node: x.node})
	procDone := reserve(&x.niFree, x.net.queue.Now(), n.params.ONIRecv)
	x.net.queue.Post(procDone, evNIRecvProc, w, int64(x.node))
}

// recvProcessed runs when a packet's NI receive processing finishes (the
// evNIRecvProc handler): replicate to NI-tree children and DMA to host.
func (x *ni) recvProcessed(w *worm) {
	n := x.net
	m := w.msg
	if m.Plan.NITree != nil && len(m.Plan.NITree[x.node]) > 0 {
		if n.params.NIStoreAndForward {
			// Ablation: hold replicas until the whole message is here.
			held := x.rxHeld[m] + 1
			if held < m.Packets {
				if x.rxHeld == nil {
					x.rxHeld = make(map[*Message]int)
				}
				x.rxHeld[m] = held
			} else {
				delete(x.rxHeld, m)
				for pkt := 0; pkt < m.Packets; pkt++ {
					x.admitBurst(x.replicaBurst(m, pkt))
				}
			}
		} else {
			// FPFS: forward this packet immediately (paper §3.2.1).
			x.admitBurst(x.replicaBurst(m, w.pkt))
		}
	}
	bytes := n.payloadFlits(m, w.pkt)
	dmaDone := reserve(&x.busFree, x.net.queue.Now(), n.params.BusCycles(bytes))
	x.net.queue.Post(dmaDone, evNIRecvDMA, m, int64(x.node))
	x.net.wormDecref(w) // the NI assembly leg; host-side events carry m, not w
}

// hostPacketArrived counts packets landed in host memory; the last one
// triggers the per-message host receive overhead and completion. A packet
// whose destination failed after it was assembled is discarded.
func (x *ni) hostPacketArrived(m *Message) {
	n := x.net
	if m.Failed(x.node) {
		n.stats.PacketsDiscarded++
		return
	}
	c := x.rxMsgs[m] + 1
	x.net.stats.PacketsToHost++
	if c < m.Packets {
		if x.rxMsgs == nil {
			x.rxMsgs = make(map[*Message]int)
		}
		x.rxMsgs[m] = c
		return
	}
	delete(x.rxMsgs, m)
	done := reserve(&x.hostFree, x.net.queue.Now(), n.params.OHostRecv)
	n.queue.Post(done, evDestDone, m, int64(x.node))
}

// destDone records destination completion, fires any secondary-source
// sends this node owes (multi-phase schemes), and completes the message.
func (n *Network) destDone(m *Message, node topology.NodeID) {
	if m.Failed(node) {
		// Late delivery racing the teardown that declared this dest
		// failed; the retransmission layer already owns it.
		return
	}
	if _, dup := m.DoneAt[node]; dup {
		panic(fmt.Sprintf("sim: node %d received message %d twice", node, m.ID))
	}
	m.DoneAt[node] = n.queue.Now()
	m.remaining--
	if m.group != nil {
		n.groupNoteDelivered(m, node)
	}
	if m.OnDestDone != nil {
		m.OnDestDone(m, node)
	}
	if m.Plan.HostSends != nil {
		for i := range m.Plan.HostSends[node] {
			n.hosts[node].ni.hostSend(m, &m.Plan.HostSends[node][i])
		}
	}
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
}

// --- fault handling ---

// dropBurst fails the destinations of every worm in b that has not started
// streaming and recycles them (un-streamed worms hold no reference legs),
// then recycles the burst itself.
func (x *ni) dropBurst(b *burst) {
	for _, w := range b.worms[b.next:] {
		x.net.failWormDests(w)
		x.net.recycleWorm(w)
	}
	x.net.putBurst(b)
}

// promoteWaiting admits deferred bursts while buffer slots are free
// (mirrors the streamDone promotion after aborts change injHeld).
func (x *ni) promoteWaiting() {
	limit := x.net.params.NIInjectBufferPackets
	for len(x.injWait) > 0 && (limit <= 0 || x.injHeld < limit) {
		b := x.injWait[0]
		x.injWait = slices.Delete(x.injWait, 0, 1)
		x.injHeld++
		x.chargeAndReady(b)
	}
}

// abortMessage tears down every injection- and reception-side trace of m at
// this NI: queued bursts, the active injection stream, and partial packets.
func (x *ni) abortMessage(m *Message) {
	var keep []*burst
	for _, b := range x.ready {
		if len(b.worms) > 0 && b.worms[0].msg == m {
			x.injHeld--
			x.dropBurst(b)
			continue
		}
		keep = append(keep, b)
	}
	x.ready = keep
	keep = nil
	for _, b := range x.injWait {
		if len(b.worms) > 0 && b.worms[0].msg == m {
			x.dropBurst(b)
			continue
		}
		keep = append(keep, b)
	}
	x.injWait = keep
	if br := x.inj.sender; br != nil && !br.done && br.w.msg == m {
		// killBranch unwinds the streaming state and starts the next burst.
		x.net.killBranch(br)
		x.net.killDownstream(br)
	}
	x.promoteWaiting()
	if w := x.rxWorm; w != nil && w.msg == m {
		x.dropAssembly()
		// Flits still on the ejection line must drain as stragglers, not
		// start a new assembly that never completes.
		w.dead = true
		x.net.wormDecref(w) // the NI assembly leg
	}
	delete(x.rxMsgs, m)
	delete(x.rxHeld, m)
}
