package sim

import (
	"fmt"

	"mcastsim/internal/destset"
	"mcastsim/internal/event"
	"mcastsim/internal/topology"
)

// This file implements dynamic multicast groups: named destination sets
// whose membership evolves over simulated time via scheduled join/leave
// events (a MembershipSchedule mirroring FaultSchedule, driven through
// the typed evMembership kind). The paper freezes destination sets at
// send time; IGMP-style group management makes them moving targets, and
// the interesting physics is the race between in-flight worms and
// membership deltas:
//
//   - A message snapshots the group's membership at send time. A member
//     that leaves while the message is in flight still receives it — a
//     STALE delivery (wasted bandwidth plus a delivery the application
//     must discard).
//
//   - A node that joins while a message is in flight is not in that
//     message's snapshot and never receives it — a MISSED delivery (the
//     gap a higher-level state-transfer protocol would have to fill).
//
// Both are counted per group and surfaced as first-class metrics.
//
// Tree repair itself lives outside the Network (see
// internal/mcast/groupplan): the simulator only applies membership to
// run-coded sets, counts each group's joins and leaves, and fires the
// group's OnDelta hook so a planner can splice or rebuild the multicast
// plan. With no groups registered none of this code runs and the steady
// flit path is untouched.

// GroupID names a group within one Network (dense, in registration
// order).
type GroupID int32

// MembershipKind selects what a MembershipEvent does.
type MembershipKind uint8

const (
	// MemberJoin adds a node to the group.
	MemberJoin MembershipKind = iota
	// MemberLeave removes a node from the group.
	MemberLeave
)

func (k MembershipKind) String() string {
	switch k {
	case MemberJoin:
		return "join"
	case MemberLeave:
		return "leave"
	default:
		return fmt.Sprintf("MembershipKind(%d)", k)
	}
}

// MembershipEvent is one scheduled membership change: at cycle At, Node
// joins or leaves Group.
type MembershipEvent struct {
	At    event.Time
	Group GroupID
	Node  topology.NodeID
	Kind  MembershipKind
}

// MembershipSchedule is a deterministic list of membership events. Build
// it before the run (seeded however the caller likes, see
// traffic.ChurnSpec) and install it once.
type MembershipSchedule struct {
	Events []MembershipEvent
}

// Group is one dynamic multicast group. All mutation happens on the
// network's event loop (the single-goroutine contract covers groups
// exactly as it covers every other entity).
type Group struct {
	net *Network
	id  GroupID

	// members is the live membership.
	members *destset.Runs

	joins  int64
	leaves int64
	stale  int64 // deliveries to nodes that had already left
	missed int64 // in-flight snapshots that excluded a joiner

	repairs int64 // plan repairs the owner reported via NoteRepair

	// onDelta fires after a membership event is applied (members updated,
	// counters bumped) — the hook a group planner uses to repair its
	// multicast plan.
	onDelta func(MembershipEvent)

	// inflight holds the group's unfinished messages; each carries a
	// pooled snapshot of the membership it was addressed to.
	inflight []*Message
}

// ID returns the group's dense per-network ID.
func (g *Group) ID() GroupID { return g.id }

// Size returns the current member count.
func (g *Group) Size() int { return g.members.Count() }

// Contains reports whether node d is currently a member.
func (g *Group) Contains(d topology.NodeID) bool { return g.members.Contains(int(d)) }

// Members returns the current membership in ascending node order (a
// fresh slice; cold path).
func (g *Group) Members() []topology.NodeID {
	out := make([]topology.NodeID, 0, g.members.Count())
	g.members.ForEach(func(i int) bool {
		out = append(out, topology.NodeID(i))
		return true
	})
	return out
}

// Joins and Leaves return the applied join/leave event counts.
func (g *Group) Joins() int64  { return g.joins }
func (g *Group) Leaves() int64 { return g.leaves }

// Stale returns the stale-delivery count: completed deliveries to nodes
// that had left the group between the message's send-time snapshot and
// its arrival.
func (g *Group) Stale() int64 { return g.stale }

// Missed returns the missed-delivery count: (message, joiner) pairs
// where the join landed while a message addressed before it was still in
// flight.
func (g *Group) Missed() int64 { return g.missed }

// SetOnDelta installs fn as the group's post-delta hook (nil disables).
// Install before advancing past the first membership event.
func (g *Group) SetOnDelta(fn func(MembershipEvent)) { g.onDelta = fn }

// NoteRepair counts one plan repair against the group, for the obs
// GroupRepairs series. The simulator does not execute repairs itself —
// the group planner owns the plan and its cost.
func (g *Group) NoteRepair() { g.repairs++ }

// NewGroup registers a dynamic multicast group with the given initial
// members. Group IDs are dense in registration order.
func (n *Network) NewGroup(name string, members []topology.NodeID) (*Group, error) {
	set := destset.NewRuns(n.topo.NumNodes)
	for _, m := range members {
		if int(m) < 0 || int(m) >= n.topo.NumNodes {
			return nil, fmt.Errorf("sim: group %q member %d out of range", name, m)
		}
		set.Add(int(m))
	}
	g := &Group{net: n, id: GroupID(len(n.groups)), members: set}
	n.groups = append(n.groups, g)
	return g, nil
}

// InstallMembership schedules every event of ms on the simulation clock.
// Call before advancing past the earliest event time. The schedule is
// copied so callers may reuse ms.
func (n *Network) InstallMembership(ms *MembershipSchedule) error {
	now := n.queue.Now()
	events := append([]MembershipEvent(nil), ms.Events...)
	for i := range events {
		ev := events[i]
		if ev.At < now {
			return fmt.Errorf("sim: membership event %d scheduled in the past (t=%d, now %d)", i, ev.At, now)
		}
		if int(ev.Group) < 0 || int(ev.Group) >= len(n.groups) {
			return fmt.Errorf("sim: membership event %d: group %d not registered", i, ev.Group)
		}
		if int(ev.Node) < 0 || int(ev.Node) >= n.topo.NumNodes {
			return fmt.Errorf("sim: membership event %d: node %d out of range", i, ev.Node)
		}
		if ev.Kind != MemberJoin && ev.Kind != MemberLeave {
			return fmt.Errorf("sim: membership event %d: unknown kind %d", i, ev.Kind)
		}
		n.queue.Post(ev.At, evMembership, &events[i], 0)
	}
	return nil
}

// applyMembership is the evMembership handler. Redundant events (joining
// a member, removing a non-member) are no-ops and count nowhere.
func (n *Network) applyMembership(ev *MembershipEvent) {
	g := n.groups[ev.Group]
	node := int(ev.Node)
	switch ev.Kind {
	case MemberJoin:
		if g.members.Contains(node) {
			return
		}
		g.members.Add(node)
		g.joins++
		// Every in-flight message was addressed to a snapshot that
		// excludes the joiner: each is a missed delivery.
		for _, m := range g.inflight {
			if !m.snapshot.Contains(node) {
				g.missed++
				n.stats.MissedDeliveries++
			}
		}
	case MemberLeave:
		if !g.members.Contains(node) {
			return
		}
		g.members.Remove(node)
		g.leaves++
	}
	n.stats.MembershipEvents++
	n.trace(TraceEvent{Kind: TraceMember, Node: ev.Node, Msg: int64(ev.Group), Pkt: int(ev.Kind)})
	n.markProgress()
	if g.onDelta != nil {
		g.onDelta(*ev)
	}
}

// SendToGroup sends a multicast addressed to group g: a plain Send plus
// the group bookkeeping that makes the churn races observable. The plan
// is the caller's (built by a scheme or a group planner against the
// membership the caller saw); the message snapshots plan.Dests ∪ source
// into a pooled run-coded set so later deltas can be classified as stale
// or missed against it. The snapshot is recycled when the message
// completes.
func (n *Network) SendToGroup(g *Group, plan *Plan, flits int, at event.Time, onComplete func(*Message)) (*Message, error) {
	if g == nil || g.net != n {
		return nil, fmt.Errorf("sim: SendToGroup with a foreign or nil group")
	}
	m, err := n.Send(plan, flits, at, onComplete)
	if err != nil {
		return nil, err
	}
	snap := n.getRuns()
	for _, d := range plan.Dests {
		snap.Add(int(d))
	}
	snap.Add(int(plan.Source))
	m.group = g
	m.snapshot = snap
	g.inflight = append(g.inflight, m)
	return m, nil
}

// groupNoteDelivered classifies one completed delivery against the
// group's current membership: a receiver that already left is a stale
// delivery. Called from destDone only when the message carries a group
// tag.
func (n *Network) groupNoteDelivered(m *Message, d topology.NodeID) {
	if !m.group.members.Contains(int(d)) {
		m.group.stale++
		n.stats.StaleDeliveries++
	}
}

// groupMsgDone retires a completed group message: it leaves the
// in-flight race window and returns its snapshot to the set pool. Runs
// before the message's onComplete so callbacks observe settled counters.
func (n *Network) groupMsgDone(m *Message) {
	g := m.group
	for i, x := range g.inflight {
		if x == m {
			g.inflight = append(g.inflight[:i], g.inflight[i+1:]...)
			break
		}
	}
	n.putRuns(m.snapshot)
	m.snapshot = nil
}
