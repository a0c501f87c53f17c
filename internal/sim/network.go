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
	FlitsDropped     int64 // flits of torn-down worms drained on arrival
	WormsKilled      int64 // worms torn down by the fault layer
	DestsFailed      int64 // destination deliveries declared failed
	Reconfigs        int64 // routing-table rebuilds that completed
	PacketsDiscarded int64 // packets assembled at an NI whose destination failed before their DMA landed

	// Dynamic-group counters (all zero without registered groups).
	MembershipEvents int64 // applied (non-redundant) join/leave events
	StaleDeliveries  int64 // deliveries to nodes that had left the group
	MissedDeliveries int64 // in-flight snapshots that excluded a joiner
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

	// Switch-to-switch port state, one entry per link end (see
	// topology.LinkEnd): the input buffer, the output port and the line
	// it drives. A node port's state lives in its host.
	bufs  []inputBuf
	ports []outPort
	chans []channel
	hosts []*host // nil until the node's host is built (see Network.host)

	outstanding int64 // messages sent and not yet complete
	nextWormID  int64
	nextMsgID   int64
	stats       Stats
	tracer      func(TraceEvent)

	// arbConflicts counts, per switch, the output-port requests that
	// found every candidate port held and had to queue.
	arbConflicts []int64

	// Observability (see obs.go): obsRec nil means no recorder, and Send
	// arms no flush tick. obsChans indexes every channel in registration
	// order for sampling; obsTickArmed dedups the self-rescheduling
	// evObsFlush tick.
	obsRec       *obs.Recorder
	obsChans     []*channel
	obsTickArmed bool

	// Fault-layer state (see fault.go). deadLink mirrors the injected
	// faults; faulted flips true at the first fault and gates the
	// dead-port filtering in fileRequest; partitioned records a failed
	// reconfiguration; invariant holds the first routing-invariant
	// violation seen on a fault-free run; progress counts control-plane
	// steps for the stall watchdog; reconfigEpoch coalesces detection
	// windows.
	deadLink      []bool
	faulted       bool
	partitioned   bool
	invariant     *InvariantError
	progress      int64
	reconfigEpoch int
	cache         routeCache

	// Dynamic multicast groups (see group.go); empty on static runs.
	groups []*Group

	// reclaimAfter is the branch quarantine horizon (see pool.go).
	reclaimAfter event.Time

	// flitTail is the branch of the latest fused hop posted. While the
	// last record for the next cycle is an evFlit, it is the last branch
	// of that record's chain, which the next fused hop joins.
	flitTail *branch

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
		topo:         t,
		rt:           rt,
		params:       params,
		arb:          rng.New(seed),
		arbConflicts: make([]int64, t.NumSwitches),
	}
	n.registerKinds()
	n.cache.init(t.NumSwitches)
	n.scr.init(t)

	// Instantiate switch-to-switch ports, one of each runtime type per
	// link end, each type in one backing array. End e's line feeds the
	// buffer at the link's far end, e^1. Assembly thus allocates a fixed
	// number of objects however many hosts hang off the switches; a host's
	// state is built on first use (Network.host). The planner's per-switch
	// views (host lists and spans, up and down links) belong to the
	// Topology and the Routing: they are read through n.topo and n.rt,
	// never copied per network.
	ends := 2 * len(t.Links)
	n.bufs = make([]inputBuf, ends)
	n.ports = make([]outPort, ends)
	n.chans = make([]channel, ends)
	for i, l := range t.Links {
		a, b := 2*i, 2*i+1
		n.bufs[a] = inputBuf{net: n, sw: l.A, port: l.APort, cap: params.BufferFlits}
		n.bufs[b] = inputBuf{net: n, sw: l.B, port: l.BPort, cap: params.BufferFlits}
		n.ports[a] = outPort{net: n, sw: l.A, port: l.APort, ch: &n.chans[a]}
		n.ports[b] = outPort{net: n, sw: l.B, port: l.BPort, ch: &n.chans[b]}
	}
	for e := range n.chans {
		peer := &n.bufs[e^1]
		n.chans[e] = channel{toSwitch: true, dstBuf: peer, credits: peer.cap}
		peer.bindUpstream(&n.chans[e])
	}
	n.hosts = make([]*host, t.NumNodes)
	n.reclaimAfter = n.reclaimQuarantine()

	n.applyOptions(&o)
	return n, nil
}

// host returns node's host, building it on first use and wiring it into
// the home switch's node port. Until then n.hosts[node] stays nil, and
// every reader treats the host as pristine: idle, credits full.
func (n *Network) host(node topology.NodeID) *host {
	if h := n.hosts[node]; h != nil {
		return h
	}
	s, p := n.topo.NodeSwitch[node], n.topo.NodePort[node]
	h := &host{}
	h.buf = inputBuf{net: n, sw: s, port: p, cap: n.params.BufferFlits}
	h.inj = channel{toSwitch: true, dstBuf: &h.buf, credits: h.buf.cap}
	h.buf.bindUpstream(&h.inj)
	h.ej = channel{dstNode: node}
	h.out = outPort{net: n, sw: s, port: p, ch: &h.ej}
	h.ni = ni{net: n, node: node, inj: &h.inj}
	n.hosts[node] = h
	return h
}

// ni returns node's NI, building its host on first use.
func (n *Network) ni(node topology.NodeID) *ni { return &n.host(node).ni }

// outPort returns switch s's output port p, building the attached host
// when p is a node port nothing has used yet; nil for an open port.
func (n *Network) outPort(s topology.SwitchID, p int) *outPort {
	if e := n.topo.LinkEnd(s, p); e >= 0 {
		return &n.ports[e]
	}
	if c := n.topo.Conn[s][p]; c.Kind == topology.ToNode {
		return &n.host(c.Node).out
	}
	return nil
}

// builtOutPort is outPort for walks that must not build hosts: nil for
// an open port and for the port of a host not yet built.
func (n *Network) builtOutPort(s topology.SwitchID, p int) *outPort {
	if e := n.topo.LinkEnd(s, p); e >= 0 {
		return &n.ports[e]
	}
	if c := n.topo.Conn[s][p]; c.Kind == topology.ToNode && n.hosts[c.Node] != nil {
		return &n.hosts[c.Node].out
	}
	return nil
}

// inBuf returns switch s's input buffer on port p: nil for an open port
// and for the port of a host not yet built.
func (n *Network) inBuf(s topology.SwitchID, p int) *inputBuf {
	if e := n.topo.LinkEnd(s, p); e >= 0 {
		return &n.bufs[e]
	}
	if c := n.topo.Conn[s][p]; c.Kind == topology.ToNode && n.hosts[c.Node] != nil {
		return &n.hosts[c.Node].buf
	}
	return nil
}

// localIntersects reports whether d contains a host attached to switch s
// — planTree's local-delivery gate. Where the switch's hosts are
// numbered contiguously (every scale generator numbers them per edge
// switch) it is one range probe; otherwise it probes each host, a
// handful of Contains calls on paper-size networks.
func (n *Network) localIntersects(d *destset.Runs, s topology.SwitchID) bool {
	if lo, hi, ok := n.topo.HostSpan(s); ok {
		return lo <= hi && d.AnyInRange(lo, hi)
	}
	for _, node := range n.topo.NodesBySwitch()[s] {
		if d.Contains(int(node)) {
			return true
		}
	}
	return false
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
	if err := n.validatePlan(plan); err != nil {
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
	t := n.topo
	for s := range topology.SwitchID(t.NumSwitches) {
		for p := range t.PortsPerSwitch {
			b := n.inBuf(s, p)
			if b == nil {
				continue
			}
			for _, o := range b.occupants {
				e.Stuck = append(e.Stuck, StuckWorm{
					Worm: o.w.id, Msg: o.w.msg.ID,
					Switch: s, Port: p,
					Arrived: o.arrived, Len: o.w.len, Routed: o.routed,
				})
			}
		}
		for p := range t.PortsPerSwitch {
			op := n.builtOutPort(s, p)
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
				Switch: s, Port: p,
				Worm: op.holder.w.id, Waiters: waiters,
			})
		}
	}
	return e
}

// Drain runs the simulation until all in-flight work completes. maxEvents
// (0 = a generous default) bounds runaway simulations. The budget counts
// logical events (EventsProcessed); an evFlit record runs whole, with
// every hop chained to it, so one that straddles the budget can overrun
// it by nearly its whole weight. The termination checks below run once
// per dispatched record, so once per chain of fused hops rather than once
// per event in it; apart from the budget, none of them could fire
// between two hops of a chain (DESIGN.md §12).
//
// A network that drains idle hands its calendar ring to the next network
// (event.Queue.Release); its own next send takes one again.
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
			n.queue.Release()
			return nil
		}
		if n.invariant != nil {
			return n.invariant
		}
		if n.outstanding == 0 && n.queue.Len() == 0 {
			n.queue.Release()
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

// Discard drops every pending event and hands the calendar ring to the
// next network, as a drained network's Drain does. It is for a network
// that will not run again but still has events pending, such as a load
// run that stops at its time limit: its outstanding messages never
// complete, and its other state stays readable.
func (n *Network) Discard() { n.queue.Discard() }

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
	t := n.topo
	for s := range topology.SwitchID(t.NumSwitches) {
		for p := range t.PortsPerSwitch {
			switch op := n.builtOutPort(s, p); {
			case op != nil:
				out = append(out, ChannelUse{Label: n.portLabel(int(s), p), Flits: op.ch.busyFlits})
			case t.Conn[s][p].Kind == topology.ToNode:
				out = append(out, ChannelUse{Label: n.portLabel(int(s), p)}) // unbuilt host
			}
		}
	}
	for node, h := range n.hosts {
		u := ChannelUse{Label: injLabel(node)}
		if h != nil {
			u.Flits = h.inj.busyFlits
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
// descriptive error on violation. It holds after faults too: a packet
// assembled at an NI either reaches its host or is discarded there
// because its destination failed first.
func (n *Network) CheckConservation() error {
	if n.outstanding != 0 {
		return fmt.Errorf("sim: conservation checked with %d messages in flight", n.outstanding)
	}
	s := n.Stats()
	if s.MessagesSent != s.MessagesDone {
		return fmt.Errorf("sim: %d messages sent but %d completed", s.MessagesSent, s.MessagesDone)
	}
	if s.PacketsAtNI != s.PacketsToHost+s.PacketsDiscarded {
		return fmt.Errorf("sim: %d packets at NIs but %d reached hosts and %d were discarded", s.PacketsAtNI, s.PacketsToHost, s.PacketsDiscarded)
	}
	return n.checkIdle()
}

// checkIdle verifies that a drained network holds nothing: every NI is
// empty, every buffer and port is free, and every live channel is
// senderless with its credits back.
func (n *Network) checkIdle() error {
	for _, h := range n.hosts {
		if h == nil {
			continue // an unbuilt host is pristine
		}
		x := &h.ni
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
	t := n.topo
	for s2 := range topology.SwitchID(t.NumSwitches) {
		for p := range t.PortsPerSwitch {
			if b := n.inBuf(s2, p); b != nil && (b.used != 0 || len(b.occupants) != 0) {
				return fmt.Errorf("sim: buffer %d/%d not empty after drain", s2, p)
			}
		}
		for p := range t.PortsPerSwitch {
			op := n.builtOutPort(s2, p)
			if op == nil {
				continue
			}
			if op.holder != nil || len(op.queue) != 0 {
				return fmt.Errorf("sim: port %d/%d still allocated after drain", s2, p)
			}
			if r := channelResidue(op.ch); r != "" {
				return fmt.Errorf("sim: channel %s %s after drain", n.portLabel(int(s2), p), r)
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
