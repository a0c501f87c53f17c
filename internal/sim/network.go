package sim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"mcastsim/internal/destset"
	"mcastsim/internal/event"
	"mcastsim/internal/obs"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Stats aggregates conservation and throughput counters over a simulation.
type Stats struct {
	WormsCreated    int64 // worm entities, including replication children
	PacketsInjected int64 // packet streams started at NIs
	FlitHops        int64 // flit transmissions over any channel
	FlitsDelivered  int64 // flits absorbed by NIs
	PacketsAtNI     int64 // packets fully assembled at receiving NIs
	PacketsToHost   int64 // packets DMA'd into host memory
	MessagesSent    int64
	MessagesDone    int64

	// Fault-layer counters (all zero on fault-free runs).
	FlitsDropped int64 // flits of torn-down worms drained on arrival
	WormsKilled  int64 // worms torn down by the fault layer
	DestsFailed  int64 // destination deliveries declared failed
	Reconfigs    int64 // routing-table rebuilds that completed

	// Dynamic-group counters (all zero without registered groups).
	MembershipEvents int64 // applied (non-redundant) join/leave events
	StaleDeliveries  int64 // deliveries to nodes that had left the group
	MissedDeliveries int64 // in-flight snapshots that excluded a joiner
}

// switchState holds one switch's per-port runtime structures. Open ports
// have nil entries, and so does a node port until its host is built (see
// Network.ni).
type switchState struct {
	inBufs   []*inputBuf
	outPorts []*outPort
}

// host is one node's edge of the network, allocated together the first
// time anything touches the node: its NI, the NI's injection line, and
// the home switch's input buffer, output port and ejection line on the
// node's port.
type host struct {
	ni  ni
	inj channel
	buf inputBuf
	out outPort
	ej  channel
}

// portPeer records one end of an up link for the climb BFS.
type portPeer struct {
	sw   int // peer switch (upAdj) or predecessor switch (revUp)
	port int // local port carrying the link
}

// Network is a runnable simulation instance: a routed topology plus all
// switch, link and NI state, driven by a discrete-event queue. It is not
// safe for concurrent use; one goroutine owns one Network.
type Network struct {
	topo   *topology.Topology
	rt     *updown.Routing
	params Params
	queue  event.Queue
	arb    *rng.Source

	// running guards the event loop against concurrent entry (see
	// enterRun): a cheap assertion of the one-goroutine-per-Network
	// contract, not a synchronization mechanism.
	running atomic.Bool

	switches []switchState
	nis      []*ni // nil until the node's host is built (see Network.ni)

	// upAdj[s] lists s's up ports and their peers; revUp[q] lists the
	// (switch, port) pairs whose up port lands on q.
	upAdj [][]portPeer
	revUp [][]portPeer

	outstanding int64 // messages sent and not yet complete
	nextWormID  int64
	nextMsgID   int64
	stats       Stats
	tracer      func(TraceEvent)

	// Observability (see obs.go): obsRec nil means disabled — the only
	// state the rest of the pipeline ever checks. obsChans indexes every
	// channel in registration order for delta sampling; obsTickArmed
	// dedups the self-rescheduling evObsFlush tick.
	obsRec       *obs.Recorder
	obsChans     []*channel
	obsTickArmed bool

	// Fault-layer state (see fault.go). deadLink/deadSwitch mirror the
	// injected faults; faulted flips true at the first fault and gates the
	// dead-port filtering in fileRequest; partitioned records a failed
	// reconfiguration; invariant holds the first routing-invariant
	// violation seen on a fault-free run; progress counts control-plane
	// steps for the stall watchdog; reconfigEpoch coalesces detection
	// windows.
	deadLink      []bool
	deadSwitch    []bool
	faulted       bool
	partitioned   bool
	invariant     *InvariantError
	progress      int64
	reconfigEpoch int

	// routingEpoch versions the routing-derived state (tables, port
	// orientations, reachability); every applied fault/repair and every
	// table swap bumps it, and the route cache flushes when it lags.
	routingEpoch int
	cache        routeCache

	// Dynamic multicast groups (see group.go); empty on static runs.
	groups []*Group

	// Topology/routing precomputes rebuilt alongside the tables.
	nodesAt   [][]topology.NodeID // nodes attached to each switch
	downPorts [][]downPort        // rt.DownPorts per switch, with their reachability

	// hostLo/hostHi give each switch's attached hosts as a contiguous id
	// range [lo, hi] when the attachment is contiguous (every scale
	// generator numbers hosts per edge switch that way), replacing the
	// per-switch localNodes bit strings — an O(S×N) table that costs
	// ~1.25 GB at 10k switches × 1M hosts. lo=0/hi=-1 marks a hostless
	// switch; lo=-1 marks an irregular attachment, where planTree's local
	// gate falls back to probing nodesAt[s] (paper-size nets are tiny, so
	// the probe is a handful of Contains calls).
	hostLo []int32
	hostHi []int32

	// reclaimAfter is the branch quarantine horizon (see pool.go).
	reclaimAfter event.Time

	// Free lists and per-decision scratch (see pool.go).
	pools entityPools
	scr   scratchSpace
}

// New assembles a network over a routed topology. The seed drives only
// adaptive-routing tie-breaks; identical seeds give identical runs.
// Options (WithTrace, WithObs) are applied after assembly, before any
// event exists; their application order is fixed, so the order they are
// passed in never matters.
func New(rt *updown.Routing, params Params, seed uint64, opts ...Option) (*Network, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	var o netOptions
	for _, opt := range opts {
		opt(&o)
	}
	t := rt.Topo
	n := &Network{
		topo:   t,
		rt:     rt,
		params: params,
		arb:    rng.New(seed),
	}
	n.registerKinds()
	n.cache.init(t.NumSwitches)
	n.scr.init(t)

	// Instantiate switch-to-switch ports. Each runtime type lives in one
	// backing array sized from the topology up front, and every switch's
	// inBufs/outPorts are cut from one shared pointer array, so assembly
	// allocates a fixed number of objects however many hosts hang off the
	// switches. Node ports stay nil until their host is built (Network.ni).
	S, P := t.NumSwitches, t.PortsPerSwitch
	links := 2 * len(t.Links) // switch-to-switch ports: both ends of every link
	bufs := make([]inputBuf, links)
	ports := make([]outPort, links)
	chans := make([]channel, links)
	bufPtrs := make([]*inputBuf, S*P)
	portPtrs := make([]*outPort, S*P)
	n.switches = make([]switchState, S)
	k := 0
	for s := 0; s < S; s++ {
		st := &n.switches[s]
		st.inBufs = bufPtrs[s*P : (s+1)*P : (s+1)*P]
		st.outPorts = portPtrs[s*P : (s+1)*P : (s+1)*P]
		for p := 0; p < P; p++ {
			if t.Conn[s][p].Kind != topology.ToSwitch {
				continue
			}
			bufs[k] = inputBuf{net: n, sw: topology.SwitchID(s), port: p, cap: params.BufferFlits}
			ports[k] = outPort{net: n, sw: topology.SwitchID(s), port: p, ch: &chans[k]}
			st.inBufs[p], st.outPorts[p] = &bufs[k], &ports[k]
			k++
		}
	}
	// Wire each switch output line to its peer's input buffer.
	for s := 0; s < S; s++ {
		for p, op := range n.switches[s].outPorts {
			if op == nil {
				continue
			}
			e := t.Conn[s][p]
			peer := n.switches[e.Switch].inBufs[e.Port]
			*op.ch = channel{toSwitch: true, dstBuf: peer, credits: peer.cap}
			peer.bindUpstream(op.ch)
		}
	}
	n.nis = make([]*ni, t.NumNodes)

	// Hot-path precomputes and scratch (see routecache.go / pool.go).
	// NodesBySwitch is one O(N+S) pass; per-switch NodesAt calls here
	// were O(S·N), minutes of setup at datacenter sizes.
	n.nodesAt = t.NodesBySwitch()
	n.hostLo = make([]int32, t.NumSwitches)
	n.hostHi = make([]int32, t.NumSwitches)
	for s := 0; s < t.NumSwitches; s++ {
		nodes := n.nodesAt[s]
		if len(nodes) == 0 {
			n.hostLo[s], n.hostHi[s] = 0, -1
			continue
		}
		lo, hi := nodes[0], nodes[len(nodes)-1]
		if int(hi)-int(lo)+1 == len(nodes) {
			// NodesBySwitch lists ids ascending, so first==min and
			// last==max; an exact span means the attachment is contiguous.
			n.hostLo[s], n.hostHi[s] = int32(lo), int32(hi)
		} else {
			n.hostLo[s], n.hostHi[s] = -1, -2
		}
	}
	n.rebuildRoutingViews()
	n.reclaimAfter = n.reclaimQuarantine()

	n.applyOptions(&o)
	return n, nil
}

// ni returns node's NI, building its host on first use (see host) and
// wiring it into the home switch's node port. Until then n.nis[node] and
// that port's inBufs/outPorts entries stay nil, and every reader treats
// the host as pristine: alive, idle, credits full.
func (n *Network) ni(node topology.NodeID) *ni {
	if x := n.nis[node]; x != nil {
		return x
	}
	s, p := n.topo.NodeSwitch[node], n.topo.NodePort[node]
	h := &host{}
	h.buf = inputBuf{net: n, sw: s, port: p, cap: n.params.BufferFlits}
	h.inj = channel{toSwitch: true, dstBuf: &h.buf, credits: h.buf.cap}
	h.buf.bindUpstream(&h.inj)
	h.ej = channel{dstNode: node}
	h.out = outPort{net: n, sw: s, port: p, ch: &h.ej}
	h.ni = ni{net: n, node: node, inj: &h.inj}
	st := &n.switches[s]
	st.inBufs[p], st.outPorts[p] = &h.buf, &h.out
	n.nis[node] = &h.ni
	return &h.ni
}

// outPort returns switch s's output port p, building the attached host
// when p is a node port nothing has used yet; nil for an open port.
func (n *Network) outPort(s topology.SwitchID, p int) *outPort {
	if op := n.switches[s].outPorts[p]; op != nil {
		return op
	}
	if e := n.topo.Conn[s][p]; e.Kind == topology.ToNode {
		n.ni(e.Node)
		return n.switches[s].outPorts[p]
	}
	return nil
}

// localIntersects reports whether d contains a host attached to switch s
// — planTree's local-delivery gate, formerly Intersects against a
// per-switch localNodes bit string. Same predicate, no O(S×N) table.
func (n *Network) localIntersects(d *destset.Runs, s topology.SwitchID) bool {
	lo, hi := n.hostLo[s], n.hostHi[s]
	if lo >= 0 {
		return lo <= hi && d.AnyInRange(int(lo), int(hi))
	}
	for _, node := range n.nodesAt[s] {
		if d.Contains(int(node)) {
			return true
		}
	}
	return false
}

// rebuildRoutingViews derives the per-switch views of the current
// routing tables (New and every table swap): the up-link adjacency the
// tree-worm climb walks, its reverse, and the down-port lists.
func (n *Network) rebuildRoutingViews() {
	t, rt := n.topo, n.rt
	n.upAdj = make([][]portPeer, t.NumSwitches)
	n.revUp = make([][]portPeer, t.NumSwitches)
	n.downPorts = make([][]downPort, t.NumSwitches)
	// Every live link has exactly one down end, so one backing array
	// sized by the link count holds every switch's down-port list.
	downs := make([]downPort, 0, len(t.Links))
	for s := 0; s < t.NumSwitches; s++ {
		start := len(downs)
		for p := 0; p < t.PortsPerSwitch; p++ {
			switch rt.Dirs[s][p] {
			case updown.DirUp:
				q := int(t.Conn[s][p].Switch)
				n.upAdj[s] = append(n.upAdj[s], portPeer{sw: q, port: p})
				n.revUp[q] = append(n.revUp[q], portPeer{sw: s, port: p})
			case updown.DirDown:
				downs = append(downs, downPort{port: p, reach: rt.DownReach(topology.SwitchID(s), p)})
			}
		}
		n.downPorts[s] = downs[start:len(downs):len(downs)]
	}
}

// downPort is a down port of a switch and its reachability string.
type downPort struct {
	port  int
	reach *destset.Runs
}

// Topology returns the simulated topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Routing returns the up*/down* state the network routes with.
func (n *Network) Routing() *updown.Routing { return n.rt }

// Params returns the network's timing parameters.
func (n *Network) Params() Params { return n.params }

// Now returns the current simulation time.
func (n *Network) Now() event.Time { return n.queue.Now() }

// Stats returns a snapshot of the conservation counters.
func (n *Network) Stats() Stats { return n.stats }

// Outstanding returns the number of in-flight messages.
func (n *Network) Outstanding() int { return int(n.outstanding) }

// EventsProcessed returns the total number of discrete events the
// network's scheduler has executed — the denominator of the events/sec
// throughput metric the perf benchmarks report.
func (n *Network) EventsProcessed() uint64 { return n.queue.Processed() }

// Schedule runs fn at absolute simulation time t (traffic generators,
// retry backoff). The closure rides the typed evSched kind, whose
// handler calls it.
func (n *Network) Schedule(t event.Time, fn func()) { n.queue.Post(t, evSched, fn, 0) }

// Send schedules a multicast described by plan carrying flits payload flits,
// initiated at time at. onComplete (optional) fires when the last
// destination's host has the message.
func (n *Network) Send(plan *Plan, flits int, at event.Time, onComplete func(*Message)) (*Message, error) {
	if err := plan.Validate(n.topo.NumNodes, n.topo.NumSwitches); err != nil {
		return nil, err
	}
	if flits <= 0 {
		return nil, fmt.Errorf("sim: message length %d", flits)
	}
	if at < n.queue.Now() {
		return nil, fmt.Errorf("sim: send scheduled in the past")
	}
	m := &Message{
		ID:         n.nextMsgID,
		Plan:       plan,
		Flits:      flits,
		Packets:    n.params.Packets(flits),
		Initiated:  at,
		DoneAt:     make(map[topology.NodeID]event.Time, len(plan.Dests)),
		remaining:  len(plan.Dests),
		onComplete: onComplete,
	}
	n.nextMsgID++
	n.outstanding++
	n.stats.MessagesSent++
	n.queue.Post(at, evMsgStart, m, 0)
	if n.obsRec != nil {
		n.obsArm()
	}
	return m, nil
}

// msgStart fires at a message's initiation time (the evMsgStart handler):
// the source host begins its sends.
func (n *Network) msgStart(m *Message) {
	src := n.ni(m.Plan.Source)
	if m.Plan.NITree != nil {
		src.hostSend(m, nil)
		return
	}
	for i := range m.Plan.HostSends[m.Plan.Source] {
		src.hostSend(m, &m.Plan.HostSends[m.Plan.Source][i])
	}
}

// StuckWorm is one worm the stall watchdog found resident in an input
// buffer when the simulation stopped making progress.
type StuckWorm struct {
	Worm    int64
	Msg     int64
	Switch  topology.SwitchID
	Port    int
	Arrived int // flits that reached the buffer
	Len     int // the worm's full stream length
	Routed  bool
}

// HeldPort is one output port the stall watchdog found allocated, with
// the holding worm and the number of queued waiters.
type HeldPort struct {
	Switch  topology.SwitchID
	Port    int
	Worm    int64
	Waiters int
}

// StallError is the progress watchdog's structured report: the
// simulation went StallCycles (or ran out of events entirely —
// QueueEmpty) without a single flit movement or control-plane step while
// messages were still outstanding. Stuck and Held name the wedged worms
// and the ports they are fighting over.
type StallError struct {
	At          event.Time
	Outstanding int
	QueueEmpty  bool
	Stuck       []StuckWorm
	Held        []HeldPort
}

func (e *StallError) Error() string {
	cause := "no flit progress"
	if e.QueueEmpty {
		cause = "no runnable events"
	}
	s := fmt.Sprintf("sim: stall: %s at t=%d with %d messages outstanding; %d stuck worms, %d held ports",
		cause, e.At, e.Outstanding, len(e.Stuck), len(e.Held))
	const cap = 8
	for i, w := range e.Stuck {
		if i == cap {
			s += fmt.Sprintf("\n  ... %d more stuck worms", len(e.Stuck)-cap)
			break
		}
		s += fmt.Sprintf("\n  worm %d (msg %d) at switch %d port %d: %d/%d flits, routed=%v",
			w.Worm, w.Msg, w.Switch, w.Port, w.Arrived, w.Len, w.Routed)
	}
	for i, h := range e.Held {
		if i == cap {
			s += fmt.Sprintf("\n  ... %d more held ports", len(e.Held)-cap)
			break
		}
		s += fmt.Sprintf("\n  port %d/%d held by worm %d with %d waiters", h.Switch, h.Port, h.Worm, h.Waiters)
	}
	return s
}

// stallReport assembles the watchdog's structured stall report from the
// live switch state.
func (n *Network) stallReport(queueEmpty bool) *StallError {
	e := &StallError{At: n.queue.Now(), Outstanding: int(n.outstanding), QueueEmpty: queueEmpty}
	for s, st := range n.switches {
		for p, b := range st.inBufs {
			if b == nil {
				continue
			}
			for _, o := range b.occupants {
				e.Stuck = append(e.Stuck, StuckWorm{
					Worm: o.w.id, Msg: o.w.msg.ID,
					Switch: topology.SwitchID(s), Port: p,
					Arrived: o.arrived, Len: o.w.len, Routed: o.routed,
				})
			}
		}
		for p, op := range st.outPorts {
			if op == nil || op.holder == nil {
				continue
			}
			waiters := 0
			for _, req := range op.queue {
				if !req.granted {
					waiters++
				}
			}
			e.Held = append(e.Held, HeldPort{
				Switch: topology.SwitchID(s), Port: p,
				Worm: op.holder.w.id, Waiters: waiters,
			})
		}
	}
	return e
}

// Drain runs the simulation until all in-flight work completes. maxEvents
// (0 = a generous default) bounds runaway simulations. The budget counts
// logical events (EventsProcessed); a fused flit hop runs whole, so one
// that straddles the budget overruns it by at most its credits plus one.
// The termination checks below run once per dispatched record, so once
// per fused hop rather than once per event in it.
//
// Termination diagnostics: if a routing invariant was violated on a
// fault-free network Drain returns the recorded *InvariantError; if the
// event queue empties with messages outstanding, or the progress watchdog
// sees no flit movement (and no control-plane step) for
// Params.StallCycles while work is outstanding, Drain returns a
// *StallError naming the stuck worms and held ports.
func (n *Network) Drain(maxEvents uint64) error {
	n.enterRun()
	defer n.exitRun()
	if maxEvents == 0 {
		maxEvents = 1 << 34
	}
	watch := n.params.StallCycles
	lastSig := int64(-1)
	var lastAt event.Time
	for start := n.queue.Processed(); n.queue.Processed()-start < maxEvents; {
		if !n.queue.Step() {
			if n.outstanding > 0 {
				return n.stallReport(true)
			}
			return nil
		}
		if n.invariant != nil {
			return n.invariant
		}
		if n.outstanding == 0 && n.queue.Len() == 0 {
			return nil
		}
		if watch > 0 && n.outstanding > 0 {
			sig := n.stats.FlitHops + n.progress
			now := n.queue.Now()
			if sig != lastSig {
				lastSig = sig
				lastAt = now
			} else if now-lastAt >= watch {
				return n.stallReport(false)
			}
		}
	}
	return fmt.Errorf("sim: event budget %d exhausted at t=%d (%d outstanding)", maxEvents, n.queue.Now(), n.outstanding)
}

// enterRun asserts the single-goroutine contract on event-loop entry: a
// Network, its event loop, and every callback the loop fires (message
// completion hooks, scheduled arrival closures) all run on the one
// goroutine that entered Drain or RunUntil. Captured variables in those
// callbacks (e.g. traffic.RunLoadOn's latency slice and error slot) are
// therefore safe without locks. A parallel harness may only parallelize
// across Networks, never within one; concurrent entry is a programming
// error and panics rather than silently corrupting simulator state.
func (n *Network) enterRun() {
	if !n.running.CompareAndSwap(false, true) {
		panic("sim: concurrent use of Network: the event loop and its callbacks are single-goroutine; parallelize across networks, never within one")
	}
}

// exitRun releases the event-loop entry guard.
func (n *Network) exitRun() { n.running.Store(false) }

// RunUntil advances the simulation clock to limit, executing all events due
// by then (open-loop load experiments use this).
func (n *Network) RunUntil(limit event.Time) {
	n.enterRun()
	defer n.exitRun()
	n.queue.RunUntil(limit)
}

// RunSingle sends one multicast at the current time, drains the network,
// and returns the completed message. It is the primitive behind all
// single-multicast latency experiments.
func (n *Network) RunSingle(plan *Plan, flits int) (*Message, error) {
	m, err := n.Send(plan, flits, n.queue.Now(), nil)
	if err != nil {
		return nil, err
	}
	if err := n.Drain(0); err != nil {
		return nil, err
	}
	return m, nil
}

// ChannelUse is one channel's carried-flit count, for utilization studies.
type ChannelUse struct {
	Label string
	Flits int64
}

// ChannelUsage returns every channel's carried flits, busiest first. Divide
// by elapsed cycles for utilization (each channel carries 1 flit/cycle).
// The channels of hosts nothing has touched are listed with 0 flits.
func (n *Network) ChannelUsage() []ChannelUse {
	var out []ChannelUse
	for s, st := range n.switches {
		for p, op := range st.outPorts {
			switch {
			case op != nil:
				out = append(out, ChannelUse{Label: n.portLabel(s, p), Flits: op.ch.busyFlits})
			case n.topo.Conn[s][p].Kind == topology.ToNode:
				out = append(out, ChannelUse{Label: n.portLabel(s, p)}) // unbuilt host
			}
		}
	}
	for node, x := range n.nis {
		u := ChannelUse{Label: injLabel(node)}
		if x != nil {
			u.Flits = x.inj.busyFlits
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flits > out[j].Flits })
	return out
}

// portLabel names the channel leaving switch s on port p ("s3p5->s7",
// or "ej n4" for a node port) in utilization reports and diagnostics.
// Labels are derived from the topology where they are read, so assembly
// never formats one.
func (n *Network) portLabel(s, p int) string {
	e := n.topo.Conn[s][p]
	if e.Kind == topology.ToSwitch {
		return fmt.Sprintf("s%dp%d->s%d", s, p, e.Switch)
	}
	return fmt.Sprintf("ej n%d", e.Node)
}

// injLabel names node's injection channel ("inj n4").
func injLabel(node int) string { return fmt.Sprintf("inj n%d", node) }

// CheckConservation verifies flit/packet/message accounting invariants on
// an idle network — including that every NI's injection side is empty and
// every live channel is senderless with its credits back — and returns a
// descriptive error on violation.
func (n *Network) CheckConservation() error {
	if n.outstanding != 0 {
		return fmt.Errorf("sim: conservation checked with %d messages in flight", n.outstanding)
	}
	s := n.Stats()
	if s.MessagesSent != s.MessagesDone {
		return fmt.Errorf("sim: %d messages sent but %d completed", s.MessagesSent, s.MessagesDone)
	}
	if s.PacketsAtNI != s.PacketsToHost {
		return fmt.Errorf("sim: %d packets at NIs but %d reached hosts", s.PacketsAtNI, s.PacketsToHost)
	}
	for _, x := range n.nis {
		if x == nil {
			continue // an unbuilt host is pristine
		}
		if x.rxWorm != nil || len(x.rxMsgs) != 0 || len(x.rxHeld) != 0 || len(x.ready) != 0 || x.streaming {
			return fmt.Errorf("sim: NI %d left with residual state", x.node)
		}
		if len(x.injWait) != 0 || x.injHeld != 0 {
			return fmt.Errorf("sim: NI %d left with %d deferred bursts and %d held buffer slots", x.node, len(x.injWait), x.injHeld)
		}
		if r := channelResidue(x.inj); r != "" {
			return fmt.Errorf("sim: channel %s %s after drain", injLabel(int(x.node)), r)
		}
	}
	for s2, st := range n.switches {
		for p, b := range st.inBufs {
			if b != nil && (b.used != 0 || len(b.occupants) != 0) {
				return fmt.Errorf("sim: buffer %d/%d not empty after drain", s2, p)
			}
		}
		for p, op := range st.outPorts {
			if op == nil {
				continue
			}
			if op.holder != nil || len(op.queue) != 0 {
				return fmt.Errorf("sim: port %d/%d still allocated after drain", s2, p)
			}
			if r := channelResidue(op.ch); r != "" {
				return fmt.Errorf("sim: channel %s %s after drain", n.portLabel(s2, p), r)
			}
		}
	}
	return nil
}

// channelResidue reports what a live channel still holds on an idle
// network: a sender, or (when it feeds a switch buffer) missing credits.
// It returns "" for a clean channel and for a dead one, whose sender and
// credits were abandoned at the break. Callers format the channel's label
// only on failure, so the check formats nothing on a healthy network.
func channelResidue(ch *channel) string {
	switch {
	case ch.dead:
		return ""
	case ch.sender != nil:
		return "still has a sender"
	case ch.toSwitch && ch.credits != ch.dstBuf.cap:
		return fmt.Sprintf("holds %d of %d credits", ch.credits, ch.dstBuf.cap)
	}
	return ""
}
