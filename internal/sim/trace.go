package sim

import (
	"mcastsim/internal/event"
	"mcastsim/internal/topology"
)

// TraceKind labels a TraceEvent.
type TraceKind uint8

const (
	// TraceInject: a packet stream starts on a node's injection line.
	TraceInject TraceKind = iota
	// TraceRoute: a worm's header was decoded at a switch input.
	TraceRoute
	// TraceGrant: a branch obtained its output port.
	TraceGrant
	// TraceTail: a branch sent its last flit.
	TraceTail
	// TraceDeliver: a packet fully assembled at a destination NI.
	TraceDeliver
	// TraceFault: a link failed (Switch and Port name its A end).
	TraceFault
	// TraceKill: a worm was torn down by the fault layer.
	TraceKill
	// TraceMember: a group membership event was applied (Node is the
	// joining/leaving node, Msg carries the GroupID, Pkt the
	// MembershipKind). Zero-churn runs emit none, so static traces are
	// unchanged.
	TraceMember
)

func (k TraceKind) String() string {
	switch k {
	case TraceInject:
		return "inject"
	case TraceRoute:
		return "route"
	case TraceGrant:
		return "grant"
	case TraceTail:
		return "tail"
	case TraceDeliver:
		return "deliver"
	case TraceFault:
		return "fault"
	case TraceKill:
		return "kill"
	case TraceMember:
		return "member"
	default:
		return "?"
	}
}

// TraceEvent is one observable step of a worm's life. The tracer runs
// synchronously inside the simulator; keep handlers cheap.
type TraceEvent struct {
	At   event.Time
	Kind TraceKind
	// Worm/Msg/Pkt identify the entity (worm IDs are unique per copy).
	Worm int64
	Msg  int64
	Pkt  int
	// Switch/Port locate switch-side events; Node locates NI-side events.
	Switch topology.SwitchID
	Port   int
	Node   topology.NodeID
}

func (n *Network) trace(ev TraceEvent) {
	if n.tracer != nil {
		ev.At = n.queue.Now()
		n.tracer(ev)
	}
}
