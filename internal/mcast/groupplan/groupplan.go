// Package groupplan maintains a multicast plan for one dynamic group
// (see sim/group.go): a stateful wrapper over a mcast.Scheme that
// repairs the plan on membership deltas instead of replanning every
// send.
//
// The repair rules follow the paper's architectural split:
//
//   - NI-based k-binomial trees live in per-node NI forwarding tables,
//     so a membership delta is an INCREMENTAL SPLICE: a join attaches
//     one leaf under a deterministic parent (one NI table entry
//     written), a leave re-parents the leaver's children onto its parent
//     (one entry per adopted child plus the removal). The rest of the
//     tree — and every other group's cached routes — is untouched.
//
//   - Switch-based worms carry their destination encoding in the wire
//     header (a bit string for tree worms, node-ID/port-mask segments
//     for path worms), so any delta forces a FULL REGENERATION: the
//     source replans and re-encodes the header before the next send.
//
// Each Apply returns the new plan plus a modeled RepairCost in cycles;
// the churn driver defers subsequent sends past the repair, which is how
// "tree-update latency" becomes a measurable axis. Plans are
// copy-on-write: Apply never mutates a previously returned *sim.Plan, so
// in-flight messages keep routing on the tree they were sent with.
package groupplan

import (
	"fmt"
	"sort"

	"mcastsim/internal/event"
	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// RepairCost models one membership repair.
type RepairCost struct {
	// Cycles is the modeled latency before the repaired plan is usable
	// for new sends.
	Cycles event.Time
	// Edges is the number of tree edges rewritten (NI table entries for
	// the NI scheme; the full destination count on a regeneration).
	Edges int
	// Rebuilt reports whether the whole plan was regenerated rather than
	// spliced.
	Rebuilt bool
}

// Planner maintains one group's plan for a fixed source.
type Planner interface {
	// Scheme returns the wrapped scheme.
	Scheme() mcast.Scheme
	// Init builds the initial plan. For every scheme it delegates to
	// Scheme().Plan verbatim, so a zero-churn planner is byte-identical
	// to the static path.
	Init(rt *updown.Routing, p sim.Params, src topology.NodeID, members []topology.NodeID, msgFlits int) (*sim.Plan, error)
	// Apply repairs the plan for one membership delta and returns the new
	// plan (a fresh value; prior plans stay valid for in-flight
	// messages). Redundant deltas (joining a member, removing a
	// non-member) return the current plan at zero cost.
	Apply(rt *updown.Routing, p sim.Params, ev sim.MembershipEvent, msgFlits int) (*sim.Plan, RepairCost, error)
	// Members returns the planner's current member view in ascending node
	// order (a fresh slice).
	Members() []topology.NodeID
}

// New returns the repair planner for s: the incremental splicer for the
// NI-based k-binomial scheme, the regenerating planner for everything
// header-encoded.
func New(s mcast.Scheme) Planner {
	if ks, ok := s.(kbinomial.Scheme); ok {
		return &niPlanner{scheme: ks}
	}
	return &rebuildPlanner{scheme: s}
}

// memberIndex returns the position of node in the ascending slice, or -1.
func memberIndex(members []topology.NodeID, node topology.NodeID) int {
	i := sort.Search(len(members), func(i int) bool { return members[i] >= node })
	if i < len(members) && members[i] == node {
		return i
	}
	return -1
}

// insertMember adds node keeping ascending order; removeMember deletes it.
func insertMember(members []topology.NodeID, node topology.NodeID) []topology.NodeID {
	i := sort.Search(len(members), func(i int) bool { return members[i] >= node })
	members = append(members, 0)
	copy(members[i+1:], members[i:])
	members[i] = node
	return members
}

func removeMember(members []topology.NodeID, i int) []topology.NodeID {
	return append(members[:i], members[i+1:]...)
}

// --- NI-based incremental splicer ---

type niPlanner struct {
	scheme kbinomial.Scheme
	src    topology.NodeID
	flits  int
	k      int

	members []topology.NodeID // ascending
	tree    map[topology.NodeID][]topology.NodeID
}

func (pl *niPlanner) Scheme() mcast.Scheme { return pl.scheme }

func (pl *niPlanner) Members() []topology.NodeID {
	return append([]topology.NodeID(nil), pl.members...)
}

func (pl *niPlanner) Init(rt *updown.Routing, p sim.Params, src topology.NodeID, members []topology.NodeID, msgFlits int) (*sim.Plan, error) {
	plan, err := pl.scheme.Plan(rt, p, src, members, msgFlits)
	if err != nil {
		return nil, err
	}
	pl.src = src
	pl.flits = msgFlits
	// The fanout is frozen at the initial optimum: incremental repair
	// trades re-optimization for locality (a full rebuild would re-derive
	// k for the new member count; the splice path deliberately does not).
	pl.k = pl.scheme.Fanout(rt, p, len(members), msgFlits)
	pl.members = append(pl.members[:0], members...)
	sort.Slice(pl.members, func(i, j int) bool { return pl.members[i] < pl.members[j] })
	// Deep-copy the working tree: the returned plan may be in flight when
	// the first splice lands.
	pl.tree = make(map[topology.NodeID][]topology.NodeID, len(plan.NITree))
	for v, kids := range plan.NITree {
		pl.tree[v] = append([]topology.NodeID(nil), kids...)
	}
	return plan, nil
}

func (pl *niPlanner) Apply(rt *updown.Routing, p sim.Params, ev sim.MembershipEvent, msgFlits int) (*sim.Plan, RepairCost, error) {
	if pl.tree == nil {
		return nil, RepairCost{}, fmt.Errorf("groupplan: Apply before Init")
	}
	idx := memberIndex(pl.members, ev.Node)
	switch ev.Kind {
	case sim.MemberJoin:
		if ev.Node == pl.src || idx >= 0 {
			return pl.publish(), RepairCost{}, nil
		}
		parent := pl.pickParent(rt, ev.Node)
		pl.tree[parent] = append(append([]topology.NodeID(nil), pl.tree[parent]...), ev.Node)
		pl.members = insertMember(pl.members, ev.Node)
		// One NI forwarding-table entry is written (the parent's), at NI
		// processing cost.
		cost := RepairCost{Cycles: p.ONISend, Edges: 1}
		return pl.publish(), cost, nil
	case sim.MemberLeave:
		if idx < 0 {
			return pl.publish(), RepairCost{}, nil
		}
		parent := pl.findParent(ev.Node)
		adopted := pl.tree[ev.Node]
		delete(pl.tree, ev.Node)
		kids := make([]topology.NodeID, 0, len(pl.tree[parent])-1+len(adopted))
		for _, c := range pl.tree[parent] {
			if c != ev.Node {
				kids = append(kids, c)
			}
		}
		// The leaver's children are adopted by its parent, preserving
		// their forwarding order. The parent may temporarily exceed k —
		// the graceful-degradation cost of splicing, visible in the
		// post-churn steady-state latency.
		kids = append(kids, adopted...)
		if len(kids) == 0 {
			delete(pl.tree, parent)
		} else {
			pl.tree[parent] = kids
		}
		pl.members = removeMember(pl.members, idx)
		cost := RepairCost{Cycles: p.ONISend * event.Time(1+len(adopted)), Edges: 1 + len(adopted)}
		return pl.publish(), cost, nil
	default:
		return nil, RepairCost{}, fmt.Errorf("groupplan: unknown membership kind %d", ev.Kind)
	}
}

// pickParent chooses where a joiner attaches: the same-switch member (or
// source) with spare fanout and the fewest children, falling back to the
// least-loaded vertex overall; ties break on lowest node ID. Purely a
// function of the current tree, so repair sequences are deterministic.
func (pl *niPlanner) pickParent(rt *updown.Routing, node topology.NodeID) topology.NodeID {
	home := rt.Topo.NodeSwitch[node]
	best, bestLoad := topology.NodeID(-1), 1<<30
	bestAny, bestAnyLoad := pl.src, 1<<30
	consider := func(v topology.NodeID) {
		load := len(pl.tree[v])
		if load < bestAnyLoad || (load == bestAnyLoad && v < bestAny) {
			bestAny, bestAnyLoad = v, load
		}
		if load >= pl.k {
			return
		}
		if rt.Topo.NodeSwitch[v] == home && (load < bestLoad || (load == bestLoad && v < best)) {
			best, bestLoad = v, load
		}
	}
	consider(pl.src)
	for _, m := range pl.members {
		consider(m)
	}
	if best >= 0 {
		return best
	}
	return bestAny
}

// findParent scans the tree for the vertex forwarding to node.
func (pl *niPlanner) findParent(node topology.NodeID) topology.NodeID {
	if containsNode(pl.tree[pl.src], node) {
		return pl.src
	}
	for _, m := range pl.members {
		if containsNode(pl.tree[m], node) {
			return m
		}
	}
	panic(fmt.Sprintf("groupplan: member %d not in tree", node))
}

func containsNode(list []topology.NodeID, node topology.NodeID) bool {
	for _, c := range list {
		if c == node {
			return true
		}
	}
	return false
}

// publish snapshots the working tree into a fresh plan. In-flight
// messages hold older plans; they must never see later splices.
func (pl *niPlanner) publish() *sim.Plan {
	tree := make(map[topology.NodeID][]topology.NodeID, len(pl.tree))
	for v, kids := range pl.tree {
		tree[v] = append([]topology.NodeID(nil), kids...)
	}
	return &sim.Plan{
		Source: pl.src,
		Dests:  append([]topology.NodeID(nil), pl.members...),
		NITree: tree,
	}
}

// --- header-encoded regeneration ---

type rebuildPlanner struct {
	scheme  mcast.Scheme
	src     topology.NodeID
	flits   int
	members []topology.NodeID // ascending
	plan    *sim.Plan
}

func (pl *rebuildPlanner) Scheme() mcast.Scheme { return pl.scheme }

func (pl *rebuildPlanner) Members() []topology.NodeID {
	return append([]topology.NodeID(nil), pl.members...)
}

func (pl *rebuildPlanner) Init(rt *updown.Routing, p sim.Params, src topology.NodeID, members []topology.NodeID, msgFlits int) (*sim.Plan, error) {
	plan, err := pl.scheme.Plan(rt, p, src, members, msgFlits)
	if err != nil {
		return nil, err
	}
	pl.src = src
	pl.flits = msgFlits
	pl.members = append(pl.members[:0], members...)
	sort.Slice(pl.members, func(i, j int) bool { return pl.members[i] < pl.members[j] })
	pl.plan = plan
	return plan, nil
}

func (pl *rebuildPlanner) Apply(rt *updown.Routing, p sim.Params, ev sim.MembershipEvent, msgFlits int) (*sim.Plan, RepairCost, error) {
	if pl.plan == nil {
		return nil, RepairCost{}, fmt.Errorf("groupplan: Apply before Init")
	}
	idx := memberIndex(pl.members, ev.Node)
	switch ev.Kind {
	case sim.MemberJoin:
		if ev.Node == pl.src || idx >= 0 {
			return pl.plan, RepairCost{}, nil
		}
		pl.members = insertMember(pl.members, ev.Node)
	case sim.MemberLeave:
		if idx < 0 {
			return pl.plan, RepairCost{}, nil
		}
		pl.members = removeMember(pl.members, idx)
	default:
		return nil, RepairCost{}, fmt.Errorf("groupplan: unknown membership kind %d", ev.Kind)
	}
	plan, err := pl.scheme.Plan(rt, p, pl.src, append([]topology.NodeID(nil), pl.members...), msgFlits)
	if err != nil {
		return nil, RepairCost{}, err
	}
	pl.plan = plan
	// The source's software re-encodes every header the new plan emits.
	cost := RepairCost{Cycles: p.OHostSend + event.Time(sim.PlanHeaderFlits(rt.Topo, p.DestCoding, plan)), Edges: len(pl.members), Rebuilt: true}
	return plan, cost, nil
}
