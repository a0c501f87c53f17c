package sim

import (
	"fmt"
	"sort"

	"mcastsim/internal/destset"
	"mcastsim/internal/event"
	"mcastsim/internal/topology"
)

// WormKind distinguishes the three wire formats the switches understand.
type WormKind uint8

const (
	// WormUnicast is a conventional single-destination worm (2 header
	// flits: tag + destination node ID). The NI-based and software
	// schemes use only these.
	WormUnicast WormKind = iota
	// WormTree is a tree-based multidestination worm with an N-bit
	// bit-string header (paper §3.2.3).
	WormTree
	// WormPath is a multi-drop path-based worm whose header alternates
	// node-ID and port-mask fields (paper §3.2.4).
	WormPath
)

func (k WormKind) String() string {
	switch k {
	case WormUnicast:
		return "unicast"
	case WormTree:
		return "tree"
	case WormPath:
		return "path"
	default:
		return fmt.Sprintf("WormKind(%d)", k)
	}
}

// PathSeg is one stop of a path worm: the worm is routed toward Switch;
// there Drops receive copies and the worm optionally continues out
// NextPort (which must carry the remaining path legally). The paper
// addresses stops by "the ID of any arbitrary node connected to the
// switch" because hardware routing tables are node-indexed; the simulator
// addresses the switch directly, which also covers transit stops on
// switches with no attached nodes.
type PathSeg struct {
	// Switch is the stop switch.
	Switch topology.SwitchID
	// Drops are the destinations delivered at the stop switch; they must
	// all be attached to it. A stop may have no drops (pure transit with
	// an explicit continuation).
	Drops []topology.NodeID
	// NextPort is the stop switch's output port the worm continues on, or
	// -1 if this is the final stop.
	NextPort int
}

// WormSpec describes one message-worth of worms a host-driven sender emits
// (the simulator splits it into packets, each its own worm).
type WormSpec struct {
	Kind WormKind
	// Dest is the destination for WormUnicast.
	Dest topology.NodeID
	// DestSet lists destinations for WormTree.
	DestSet []topology.NodeID
	// Path lists segments for WormPath.
	Path []PathSeg
}

// Plan is a scheme-built multicast strategy the simulator executes. Exactly
// one of the two modes is used:
//
//   - NITree (the NI-based scheme): every listed parent's NI forwards each
//     arriving packet to its children as unicast worms, FPFS order, without
//     host involvement; the source's NI replicates outgoing packets the
//     same way. Host send overhead is paid once, at the source.
//
//   - HostSends (software and switch-based schemes): each listed sender
//     emits its WormSpecs as ordinary message sends, paying full host+NI
//     overhead per spec. The source's sends trigger when the message is
//     handed to the messaging layer; any other sender's trigger when that
//     sender's host has completely received the message (it acts as a
//     secondary source in a later phase, paper §1).
type Plan struct {
	Source topology.NodeID
	Dests  []topology.NodeID

	NITree    map[topology.NodeID][]topology.NodeID
	HostSends map[topology.NodeID][]WormSpec
}

// Validate checks structural sanity of the plan against a topology-sized
// universe (numNodes nodes, numSwitches switches). It does not check route
// legality — the simulator asserts that at execution time.
func (p *Plan) Validate(numNodes, numSwitches int) error {
	return p.validate(numNodes, numSwitches, destset.NewRuns(numNodes), destset.NewRuns(numNodes))
}

// validate is Validate on two caller-supplied empty sets over the node
// universe, which it fills: seen with the destinations, delivered with
// the nodes the plan delivers to.
func (p *Plan) validate(numNodes, numSwitches int, seen, delivered *destset.Runs) error {
	inRange := func(n topology.NodeID) bool { return int(n) >= 0 && int(n) < numNodes }
	if !inRange(p.Source) {
		return fmt.Errorf("plan: source %d out of range", p.Source)
	}
	if len(p.Dests) == 0 {
		return fmt.Errorf("plan: no destinations")
	}
	for _, d := range p.Dests {
		if !inRange(d) {
			return fmt.Errorf("plan: destination %d out of range", d)
		}
		if d == p.Source {
			return fmt.Errorf("plan: source %d listed as destination", d)
		}
		if seen.Contains(int(d)) {
			return fmt.Errorf("plan: duplicate destination %d", d)
		}
		seen.Add(int(d))
	}
	if (p.NITree == nil) == (p.HostSends == nil) {
		return fmt.Errorf("plan: exactly one of NITree / HostSends must be set")
	}
	// Delivery accounting: the simulator requires every destination to be
	// delivered exactly once, and no deliveries to non-destinations. The
	// first offence is reported once the plan's structure has checked out.
	var misdelivery error
	deliver := func(k topology.NodeID) {
		switch {
		case misdelivery != nil:
		case !seen.Contains(int(k)):
			misdelivery = fmt.Errorf("plan: delivers to non-destination %d", k)
		case delivered.Contains(int(k)):
			misdelivery = fmt.Errorf("plan: destination %d delivered more than once", k)
		default:
			delivered.Add(int(k))
		}
	}
	if p.NITree != nil {
		if len(p.NITree[p.Source]) == 0 {
			return fmt.Errorf("plan: NI tree gives the source no children")
		}
		for parent, kids := range p.NITree {
			if !inRange(parent) {
				return fmt.Errorf("plan: NI parent %d out of range", parent)
			}
			if parent != p.Source && !seen.Contains(int(parent)) {
				return fmt.Errorf("plan: NI parent %d is neither source nor destination", parent)
			}
			for _, k := range kids {
				if !inRange(k) {
					return fmt.Errorf("plan: NI child %d out of range", k)
				}
				if k == parent {
					return fmt.Errorf("plan: node %d forwards to itself", k)
				}
				deliver(k)
			}
		}
	}
	if p.HostSends != nil && len(p.HostSends[p.Source]) == 0 {
		return fmt.Errorf("plan: host-send plan gives the source nothing to send")
	}
	for sender, specs := range p.HostSends {
		if !inRange(sender) {
			return fmt.Errorf("plan: sender %d out of range", sender)
		}
		if sender != p.Source && !seen.Contains(int(sender)) {
			return fmt.Errorf("plan: sender %d is neither source nor destination", sender)
		}
		for i, w := range specs {
			if err := w.validate(numNodes, numSwitches); err != nil {
				return fmt.Errorf("plan: sender %d spec %d: %w", sender, i, err)
			}
			switch w.Kind {
			case WormUnicast:
				deliver(w.Dest)
			case WormTree:
				for _, d := range w.DestSet {
					deliver(d)
				}
			case WormPath:
				for _, seg := range w.Path {
					for _, d := range seg.Drops {
						deliver(d)
					}
				}
			}
		}
	}
	if misdelivery != nil {
		return misdelivery
	}
	if delivered.Count() != seen.Count() {
		for _, d := range p.Dests {
			if !delivered.Contains(int(d)) {
				return fmt.Errorf("plan: destination %d never delivered", d)
			}
		}
	}
	return nil
}

// validatePlan is Plan.Validate on two pooled sets, so a send allocates
// nothing to check its plan.
func (n *Network) validatePlan(p *Plan) error {
	seen, delivered := n.getRuns(), n.getRuns()
	err := p.validate(n.topo.NumNodes, n.topo.NumSwitches, seen, delivered)
	n.putRuns(seen)
	n.putRuns(delivered)
	return err
}

func (w *WormSpec) validate(numNodes, numSwitches int) error {
	inRange := func(n topology.NodeID) bool { return int(n) >= 0 && int(n) < numNodes }
	switch w.Kind {
	case WormUnicast:
		if !inRange(w.Dest) {
			return fmt.Errorf("unicast dest %d out of range", w.Dest)
		}
	case WormTree:
		if len(w.DestSet) == 0 {
			return fmt.Errorf("tree worm with empty destination set")
		}
		for _, d := range w.DestSet {
			if !inRange(d) {
				return fmt.Errorf("tree dest %d out of range", d)
			}
		}
	case WormPath:
		if len(w.Path) == 0 {
			return fmt.Errorf("path worm with no segments")
		}
		anyDrop := false
		for i, seg := range w.Path {
			if int(seg.Switch) < 0 || int(seg.Switch) >= numSwitches {
				return fmt.Errorf("segment %d switch out of range", i)
			}
			last := i == len(w.Path)-1
			if last && seg.NextPort != -1 {
				return fmt.Errorf("final segment has a continuation port")
			}
			if !last && seg.NextPort < 0 {
				return fmt.Errorf("segment %d missing continuation port", i)
			}
			for _, d := range seg.Drops {
				if !inRange(d) {
					return fmt.Errorf("segment %d drop %d out of range", i, d)
				}
				anyDrop = true
			}
		}
		if !anyDrop {
			return fmt.Errorf("path worm delivers nothing")
		}
	default:
		return fmt.Errorf("unknown worm kind %d", w.Kind)
	}
	return nil
}

// Message is one multicast in flight. The simulator owns its mutable state.
type Message struct {
	ID    int64
	Plan  *Plan
	Flits int // payload flit count
	// Packets is the packet count (derived from Flits and Params).
	Packets int

	// Initiated is when the multicast entered the source's send queue;
	// DoneAt[d] is when destination d's host finished receiving.
	Initiated event.Time
	DoneAt    map[topology.NodeID]event.Time

	// FailedAt[d] is when the fault layer declared destination d
	// undeliverable for this message (its worm was torn down at a failed
	// channel, its forwarding parent failed, or the message was aborted).
	// A failed destination still counts against remaining, so a message
	// with failures completes with Done() true but DeliveredAll() false;
	// the retransmission layer re-plans the failed remainder.
	FailedAt map[topology.NodeID]event.Time

	// OnDestDone, when set (immediately after Send returns, before the
	// simulation advances), fires at each destination's host-completion
	// time — the hook for building collectives like gather or ack
	// collection on top of a multicast.
	OnDestDone func(m *Message, dest topology.NodeID)

	remaining  int
	onComplete func(*Message)

	// group/snapshot tag a dynamic-group send (see group.go): snapshot is
	// the pooled membership set taken at send time, recycled at
	// completion. Both empty on plain sends.
	group    *Group
	snapshot *destset.Runs
}

// Group returns the dynamic group this message was addressed to, or nil
// for a plain send.
func (m *Message) Group() *Group { return m.group }

// Latency returns the multicast completion latency: last destination's host
// receive completion minus initiation. It panics if the message has not
// completed.
func (m *Message) Latency() event.Time {
	if m.remaining != 0 {
		panic("sim: Latency on incomplete message")
	}
	var last event.Time
	for _, t := range m.DoneAt {
		if t > last {
			last = t
		}
	}
	return last - m.Initiated
}

// Done reports whether every destination has been accounted for — received
// by its host or declared failed by the fault layer.
func (m *Message) Done() bool { return m.remaining == 0 }

// DeliveredAll reports whether every destination's host actually received
// the message (Done with no failures).
func (m *Message) DeliveredAll() bool { return m.remaining == 0 && len(m.FailedAt) == 0 }

// Failed reports whether destination d was declared undeliverable.
func (m *Message) Failed(d topology.NodeID) bool {
	_, ok := m.FailedAt[d]
	return ok
}

// FailedDests returns the failed destinations in ascending node order (the
// deterministic input for re-planning a retransmission).
func (m *Message) FailedDests() []topology.NodeID {
	if len(m.FailedAt) == 0 {
		return nil
	}
	out := make([]topology.NodeID, 0, len(m.FailedAt))
	for d := range m.FailedAt {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// delivered lists every destination a spec delivers.
func (w *WormSpec) delivered() []topology.NodeID {
	switch w.Kind {
	case WormUnicast:
		return []topology.NodeID{w.Dest}
	case WormTree:
		return w.DestSet
	case WormPath:
		var out []topology.NodeID
		for _, seg := range w.Path {
			out = append(out, seg.Drops...)
		}
		return out
	}
	return nil
}

// DeliveryChildren returns the destinations whose delivery depends on node
// d having received the message: d's NI-tree children and everything d's
// own HostSends specs would deliver as a secondary source. When d fails,
// its delivery subtree fails with it (and is re-planned by the
// retransmission layer from the true source).
func (p *Plan) DeliveryChildren(d topology.NodeID) []topology.NodeID {
	var out []topology.NodeID
	out = append(out, p.NITree[d]...)
	for i := range p.HostSends[d] {
		out = append(out, p.HostSends[d][i].delivered()...)
	}
	return out
}
