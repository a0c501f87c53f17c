package traffic

import (
	"fmt"
	"sort"

	"mcastsim/internal/event"
	"mcastsim/internal/mcast/groupplan"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Churn mode drives a dynamic multicast group (sim/group.go) through a
// seeded join/leave schedule while the source keeps multicasting to it,
// with the group's plan repaired by the scheme's groupplan.Planner on
// every delta. Each probe is one independent cell: fresh network, fresh
// group, fresh schedule. With Events == 0 the driver degenerates to
// periodic static multicasts — byte-identical TraceEvent streams to a
// plain-Send loop, which the equivalence tests pin.

// Seed salts for churn mode's derived streams. Mix, not add (the PR 2
// bug class): additive derivation makes adjacent probes' streams
// collide with cells seeded one apart.
const (
	saltChurnArb   uint64 = 0xc4a3b  // per-probe network arbitration seed
	saltChurnSched uint64 = 0xc45ced // per-probe membership schedule seed
)

// ChurnSpec selects dynamic-group churn mode (see WithChurn).
type ChurnSpec struct {
	// Probes independent churn cells are run.
	Probes int
	// Events is the number of join/leave events per probe, spread over
	// (0, Horizon]; 0 means a static group (the zero-churn baseline).
	Events int
	// Horizon is the churn-and-send window in cycles.
	Horizon event.Time
	// SendEvery is the group multicast cadence within the window; the
	// first send is at t=0.
	SendEvery event.Time
	// MinMembers floors the group size (the schedule generator forces
	// joins at the floor); 0 means 2. MaxMembers caps it; 0 means
	// numNodes-1.
	MinMembers int
	MaxMembers int
	// Faults, when non-nil, builds probe i's fault schedule (as in
	// FaultSpec.Faults), composing link failures with membership churn.
	// Sends stay plain (not reliable), so lost destinations show up
	// directly in the delivery ratio.
	Faults func(probe int, rt *updown.Routing) *sim.FaultSchedule
}

// ChurnProbe is one churn cell's outcome.
type ChurnProbe struct {
	// Sent group multicasts were initiated in the window, addressed to
	// TotalDests destinations in aggregate (snapshot sizes at send time);
	// Delivered of those destination deliveries completed.
	Sent       int
	TotalDests int
	Delivered  int

	// Group race/repair accounting (see sim.Group).
	Stale  int64
	Missed int64
	Joins  int64
	Leaves int64

	// Repairs plan repairs ran, rewriting RepairEdges tree edges at a
	// summed modeled latency of RepairCycles; Rebuilds of them were full
	// regenerations (header-encoded schemes).
	Repairs      int64
	RepairEdges  int64
	RepairCycles event.Time
	Rebuilds     int64

	// FinalMembers is the membership size after the window.
	FinalMembers int

	// Post is the post-churn steady-state multicast latency on the
	// repaired plan (NaN when it did not deliver in full);
	// PostDelivered/PostTotal give its delivery counts.
	Post                     float64
	PostDelivered, PostTotal int
}

// insertNodeSorted inserts node into an ascending slice.
func insertNodeSorted(list []topology.NodeID, node topology.NodeID) []topology.NodeID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= node })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = node
	return list
}

// churnSchedule builds one probe's membership schedule: spec.Events
// join/leave events at seeded times in (0, Horizon], with kinds chosen
// to respect the Min/MaxMembers bounds and nodes drawn uniformly from
// the tracked member/non-member partition (the source never joins).
// The caller derives seed via rng.Mix — never seed arithmetic.
func churnSchedule(seed uint64, gid sim.GroupID, numNodes int, src topology.NodeID, initial []topology.NodeID, spec ChurnSpec) *sim.MembershipSchedule {
	ms := &sim.MembershipSchedule{}
	if spec.Events <= 0 {
		return ms
	}
	r := rng.New(seed)
	min := spec.MinMembers
	if min < 2 {
		min = 2
	}
	max := spec.MaxMembers
	if max <= 0 || max > numNodes-1 {
		max = numNodes - 1
	}
	members := append([]topology.NodeID(nil), initial...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	inGroup := make([]bool, numNodes)
	for _, m := range members {
		inGroup[m] = true
	}
	var outside []topology.NodeID
	for v := 0; v < numNodes; v++ {
		if !inGroup[v] && topology.NodeID(v) != src {
			outside = append(outside, topology.NodeID(v))
		}
	}
	times := make([]event.Time, spec.Events)
	for i := range times {
		times[i] = 1 + event.Time(r.Intn(int(spec.Horizon)))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, at := range times {
		join := false
		switch {
		case len(members) <= min:
			join = true
		case len(members) >= max:
			join = false
		default:
			join = r.Intn(2) == 0
		}
		if join && len(outside) == 0 {
			join = false
		}
		if join {
			i := r.Intn(len(outside))
			node := outside[i]
			outside = append(outside[:i], outside[i+1:]...)
			members = insertNodeSorted(members, node)
			ms.Events = append(ms.Events, sim.MembershipEvent{At: at, Group: gid, Node: node, Kind: sim.MemberJoin})
		} else {
			i := r.Intn(len(members))
			node := members[i]
			members = append(members[:i], members[i+1:]...)
			outside = insertNodeSorted(outside, node)
			ms.Events = append(ms.Events, sim.MembershipEvent{At: at, Group: gid, Node: node, Kind: sim.MemberLeave})
		}
	}
	return ms
}

// runChurn is churn mode's implementation.
func runChurn(rt *updown.Routing, w Workload, spec ChurnSpec, o *runOpts) ([]ChurnProbe, error) {
	if spec.Probes <= 0 {
		return nil, fmt.Errorf("traffic: non-positive probe count")
	}
	if spec.Horizon <= 0 || spec.SendEvery <= 0 {
		return nil, fmt.Errorf("traffic: bad churn windows")
	}
	if spec.Events < 0 {
		return nil, fmt.Errorf("traffic: negative event count")
	}
	numNodes := rt.Topo.NumNodes
	r := rng.New(w.Seed)
	out := make([]ChurnProbe, 0, spec.Probes)
	for i := 0; i < spec.Probes; i++ {
		src, members := randomSet(r, numNodes, w.Degree)
		n, err := sim.New(rt, w.Params, rng.Mix(w.Seed, saltChurnArb, uint64(i)), o.simOpts()...)
		if err != nil {
			return nil, err
		}
		g, err := n.NewGroup(fmt.Sprintf("g%d", i), members)
		if err != nil {
			return nil, fmt.Errorf("traffic: churn probe %d: %w", i, err)
		}
		if spec.Faults != nil {
			if fs := spec.Faults(i, rt); fs != nil {
				if err := n.InstallFaults(fs); err != nil {
					return nil, fmt.Errorf("traffic: churn probe %d: %w", i, err)
				}
			}
		}
		sched := churnSchedule(rng.Mix(w.Seed, saltChurnSched, uint64(i)), g.ID(), numNodes, src, members, spec)
		if err := n.InstallMembership(sched); err != nil {
			return nil, fmt.Errorf("traffic: churn probe %d: %w", i, err)
		}

		pl := groupplan.New(w.Scheme)
		plan, err := pl.Init(rt, w.Params, src, members, w.MsgFlits)
		if err != nil {
			return nil, fmt.Errorf("traffic: churn probe %d (%s): %w", i, w.Scheme.Name(), err)
		}
		var probe ChurnProbe
		var genErr error
		var planReady event.Time
		g.SetOnDelta(func(ev sim.MembershipEvent) {
			if genErr != nil {
				return
			}
			// Repairs run against the routing tables in force now — after
			// a fault reconfiguration a regenerated plan must follow the
			// swapped tables, not the originals.
			p2, cost, err := pl.Apply(n.Routing(), w.Params, ev, w.MsgFlits)
			if err != nil {
				genErr = err
				return
			}
			plan = p2
			g.NoteRepair()
			probe.Repairs++
			probe.RepairEdges += int64(cost.Edges)
			probe.RepairCycles += cost.Cycles
			if cost.Rebuilt {
				probe.Rebuilds++
			}
			// The source cannot address the group until the repair lands:
			// sends queue behind the latest repair.
			if now := n.Now(); planReady < now {
				planReady = now
			}
			planReady += cost.Cycles
		})

		var sendTick func()
		sendTick = func() {
			now := n.Now()
			if genErr != nil || now > spec.Horizon {
				return
			}
			if now < planReady {
				n.Schedule(planReady, sendTick)
				return
			}
			p := plan
			probe.Sent++
			probe.TotalDests += len(p.Dests)
			if _, err := n.SendToGroup(g, p, w.MsgFlits, now, func(m *sim.Message) {
				probe.Delivered += len(m.DoneAt)
			}); err != nil {
				genErr = err
				return
			}
			if now+spec.SendEvery <= spec.Horizon {
				n.Schedule(now+spec.SendEvery, sendTick)
			}
		}
		n.Schedule(0, sendTick)

		if err := n.Drain(0); err != nil {
			return nil, fmt.Errorf("traffic: churn probe %d (%s): %w", i, w.Scheme.Name(), err)
		}
		if genErr != nil {
			return nil, fmt.Errorf("traffic: churn probe %d (%s): %w", i, w.Scheme.Name(), genErr)
		}
		// Stale deliveries are physical deliveries, and a packet whose
		// destination failed is counted as discarded, so every message and
		// packet is accounted for, with or without faults.
		if err := n.CheckConservation(); err != nil {
			return nil, fmt.Errorf("traffic: churn probe %d: %w", i, err)
		}

		// Post-churn steady state: one clean multicast on the repaired
		// plan after the window drains.
		probe.Post = nan()
		at := n.Now()
		if at < planReady {
			at = planReady
		}
		if m, err := n.SendToGroup(g, plan, w.MsgFlits, at, nil); err == nil {
			if err := n.Drain(0); err != nil {
				return nil, fmt.Errorf("traffic: churn probe %d post (%s): %w", i, w.Scheme.Name(), err)
			}
			probe.PostDelivered = len(m.DoneAt)
			probe.PostTotal = len(plan.Dests)
			if m.DeliveredAll() {
				probe.Post = float64(m.Latency())
			}
		}

		probe.Stale = g.Stale()
		probe.Missed = g.Missed()
		probe.Joins = g.Joins()
		probe.Leaves = g.Leaves()
		probe.FinalMembers = g.Size()
		n.FlushObs()
		out = append(out, probe)
	}
	return out, nil
}
