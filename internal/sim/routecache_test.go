package sim

import (
	"fmt"
	"maps"
	"testing"

	"mcastsim/internal/destset"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// treeStormPlan multicasts from src to every other node in the fixture as
// a single tree worm — the workload whose routing decisions (climb BFS,
// down partition) the route cache memoizes.
func treeStormPlan(src topology.NodeID) *Plan {
	var dests []topology.NodeID
	for d := topology.NodeID(0); d < 8; d++ {
		if d != src {
			dests = append(dests, d)
		}
	}
	return &Plan{
		Source: src,
		Dests:  dests,
		HostSends: map[topology.NodeID][]WormSpec{
			src: {{Kind: WormTree, DestSet: dests}},
		},
	}
}

// runTreeStorm drives a scripted tree-heavy workload (repeated multicasts
// from several sources so every cacheable decision recurs) and returns the
// full trace. The script is deterministic, so two networks built with the
// same seed must produce byte-identical traces regardless of whether the
// route cache is enabled.
func runTreeStorm(t *testing.T, n *Network) []TraceEvent {
	t.Helper()
	var evs []TraceEvent
	setTestTracer(n, func(ev TraceEvent) { evs = append(evs, ev) })
	for round := 0; round < 3; round++ {
		for _, src := range []topology.NodeID{0, 4, 7} {
			mustRun(t, n, treeStormPlan(src), 48)
		}
		// Cross-switch unicasts interleave uncached next-hop decisions,
		// and their arbitration draws, with the tree worms' cache hits.
		mustRun(t, n, unicastPlan(0, 7), 48)
		mustRun(t, n, unicastPlan(6, 1), 48)
	}
	return evs
}

func diffTraces(t *testing.T, got, want []TraceEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length diverged: cached %d events, uncached %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace diverged at event %d:\n cached:   %+v\n uncached: %+v", i, got[i], want[i])
		}
	}
}

// TestRouteCacheTraceEquivalence is the cache's core contract: the cached
// and uncached simulations must be indistinguishable at the TraceEvent
// level — same grants, same branch order, same RNG draws — on a workload
// where most decisions are cache hits.
func TestRouteCacheTraceEquivalence(t *testing.T) {
	cached := fixtureNet(t, DefaultParams())
	uncached := fixtureNet(t, DefaultParams())
	uncached.cache.disabled = true

	gotC := runTreeStorm(t, cached)
	gotU := runTreeStorm(t, uncached)
	diffTraces(t, gotC, gotU)

	if len(cached.cache.part) == 0 || len(cached.cache.climb) == 0 {
		t.Fatalf("workload never populated the cache (part=%d climb=%d) — equivalence is vacuous",
			len(cached.cache.part), len(cached.cache.climb))
	}
	if cs, us := cached.Stats(), uncached.Stats(); cs != us {
		t.Fatalf("stats diverged:\n cached:   %+v\n uncached: %+v", cs, us)
	}
}

// runFaultScript runs tree traffic, fails a link, drains past the
// reconfiguration, runs more traffic against the swapped tables, fails a
// second link, reconfigures again, and finishes with a final storm. Every
// step happens at a deterministic simulation time, so a cached and an
// uncached network replay the identical schedule.
func runFaultScript(t *testing.T, n *Network) []TraceEvent {
	t.Helper()
	var evs []TraceEvent
	setTestTracer(n, func(ev TraceEvent) { evs = append(evs, ev) })

	settle := n.Params().FaultDetectCycles + 500

	mustRun(t, n, treeStormPlan(0), 48) // populate the cache under the healthy tables

	n.FailLink(0) // switch 0 port 0 <-> switch 1 port 0; graph stays connected
	n.RunUntil(n.Now() + settle)
	if n.Stats().Reconfigs != 1 {
		t.Fatalf("expected 1 reconfiguration after the fault, got %d", n.Stats().Reconfigs)
	}
	for _, src := range []topology.NodeID{0, 7} {
		mustRun(t, n, treeStormPlan(src), 48) // decisions under the degraded tables
	}

	n.FailLink(8) // switch 5 <-> switch 7; the graph stays connected
	n.RunUntil(n.Now() + settle)
	if n.Stats().Reconfigs != 2 {
		t.Fatalf("expected 2 reconfigurations after the second fault, got %d", n.Stats().Reconfigs)
	}
	for _, src := range []topology.NodeID{0, 4, 7} {
		mustRun(t, n, treeStormPlan(src), 48) // decisions under the twice-swapped tables
	}
	return evs
}

// TestRouteCacheEpochInvalidation pins the cache's one lifetime rule:
// swapRouting, and nothing else, empties it. After each of two faults,
// cached decisions must match a cache-disabled twin bit for bit; a
// stale entry surviving either table swap would route a worm
// down a port the new tables never pick and the traces would diverge at
// the first post-reconfiguration grant. Then, on one network, entries
// filled under the healthy tables must survive the fault itself and a
// membership delta, and be gone once the reconfiguration swaps tables.
func TestRouteCacheEpochInvalidation(t *testing.T) {
	cached := fixtureNet(t, DefaultParams())
	uncached := fixtureNet(t, DefaultParams())
	uncached.cache.disabled = true

	gotC := runFaultScript(t, cached)
	gotU := runFaultScript(t, uncached)
	diffTraces(t, gotC, gotU)
	if cs, us := cached.Stats(), uncached.Stats(); cs != us {
		t.Fatalf("stats diverged:\n cached:   %+v\n uncached: %+v", cs, us)
	}

	n := fixtureNet(t, DefaultParams())
	g, err := n.NewGroup("g0", []topology.NodeID{3, 5, 7})
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	mustRun(t, n, treeStormPlan(7), 48)
	climb, part := maps.Clone(n.cache.climb), maps.Clone(n.cache.part)
	if len(climb) == 0 || len(part) == 0 {
		t.Fatalf("cache not warmed: climb=%d part=%d", len(climb), len(part))
	}
	n.FailLink(0)
	err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
		{At: n.Now() + 1, Group: g.ID(), Node: 7, Kind: MemberLeave},
	}})
	if err != nil {
		t.Fatalf("InstallMembership: %v", err)
	}
	n.RunUntil(n.Now() + 2)
	if st := n.Stats(); st.MembershipEvents != 1 || st.Reconfigs != 0 {
		t.Fatalf("want the delta applied before the reconfiguration: %+v", st)
	}
	if !maps.Equal(n.cache.climb, climb) || !maps.Equal(n.cache.part, part) {
		t.Fatal("a fault or a membership delta changed the route cache")
	}
	n.RunUntil(n.Now() + n.Params().FaultDetectCycles + 500)
	if n.Stats().Reconfigs != 1 {
		t.Fatalf("expected 1 reconfiguration after the fault, got %d", n.Stats().Reconfigs)
	}
	if len(n.cache.climb) != 0 || len(n.cache.part) != 0 {
		t.Fatalf("table swap kept %d climb and %d partition entries", len(n.cache.climb), len(n.cache.part))
	}
}

// TestRouteCacheWarmDecisionsZeroAlloc pins the allocation-free claim for
// the routing hot paths: once an entry exists and the pools are primed, a
// climb lookup and a down partition (including handing back the pooled
// subsets) allocate nothing. Neither does a next-hop decision, into
// decision scratch or into caller slices sized once, once its distance
// row exists, nor any of the four reachability reads planTree makes.
func TestRouteCacheWarmDecisionsZeroAlloc(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	set := n.getRuns()
	for _, d := range []int{1, 3, 5, 7} {
		set.Add(d)
	}

	// Pick a covering switch for the partition and a non-covering one for
	// the climb, from the live tables rather than assuming the root's ID.
	coverer, climber := topology.SwitchID(-1), topology.SwitchID(-1)
	for s := 0; s < 8; s++ {
		if set.SubsetOf(n.rt.Cover[s]) {
			if coverer < 0 {
				coverer = topology.SwitchID(s)
			}
		} else if climber < 0 {
			climber = topology.SwitchID(s)
		}
	}
	if coverer < 0 || climber < 0 {
		t.Fatalf("fixture lacks a covering/non-covering switch pair (coverer=%d climber=%d)", coverer, climber)
	}

	partition := func() {
		out, ok := n.partitionDownAdaptive(coverer, set)
		if !ok {
			t.Fatal("partition failed on healthy tables")
		}
		for _, ps := range out {
			n.putRuns(ps.sub)
		}
	}
	climb := func() {
		if ports := n.climbPorts(climber, set); len(ports) == 0 {
			t.Fatalf("no climb ports from switch %d", climber)
		}
	}
	hops := func() {
		if ports, _ := n.nextHops(climber, updown.PhaseUp, coverer); len(ports) == 0 {
			t.Fatalf("no next hops from switch %d to %d", climber, coverer)
		}
	}
	ports := make([]int, 0, n.topo.PortsPerSwitch)
	phases := make([]updown.Phase, 0, n.topo.PortsPerSwitch)
	rtHops := func() {
		ports, phases = n.rt.NextHops(climber, updown.PhaseUp, coverer, ports[:0], phases[:0])
	}

	// Warm: first calls populate the cache (and may allocate the entries,
	// the distance row and the scratch).
	partition()
	climb()
	hops()

	for name, decide := range map[string]func(){
		"partitionDownAdaptive": partition,
		"climbPorts":            climb,
		"nextHops":              hops,
		"Routing.NextHops":      rtHops,
	} {
		if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
			t.Fatalf("warm %s allocates %.1f/op, want 0", name, allocs)
		}
	}

	reach := n.rt.DownLinks(coverer)[0].Reach
	dst := n.getRuns()
	set.IntersectInto(dst, reach) // sizes dst's run list
	sink := 0
	for name, read := range map[string]func(){
		"Intersects":    func() { sink += boolInt(set.Intersects(reach)) },
		"SubsetOf":      func() { sink += boolInt(set.SubsetOf(n.rt.Cover[coverer])) },
		"AndCount":      func() { sink += set.AndCount(reach) },
		"IntersectInto": func() { set.IntersectInto(dst, reach) },
	} {
		if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
			t.Errorf("reachability read %s allocates %.1f/op, want 0", name, allocs)
		}
	}
	if sink == 1<<62 {
		t.Log(sink)
	}
	n.putRuns(dst)
	n.putRuns(set)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestPartitionDownAdaptiveExactlyOnce pins the down partition's
// contract at covering switches: every destination lands on exactly one
// branch, each branch leaves through a distinct down port and stays
// within that port's DownReach. It holds on the cold path and on a
// route-cache hit (which must hand back the cold partition). The
// subtest is named for the run-coded (sparse) sets the planner works on.
func TestPartitionDownAdaptiveExactlyOnce(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		hits := 0
		for seed := uint64(60); seed < 64; seed++ {
			n := randomNet(t, topology.DefaultConfig(), DefaultParams(), seed)
			r := rng.New(seed)
			for trial := 0; trial < 40; trial++ {
				s, set := coveredSet(n, r)
				if set == nil {
					continue
				}
				var cold string
				for pass := 0; pass < 2; pass++ {
					e := n.cache.part[partKey{sw: int32(s), fp: set.Fingerprint()}]
					hit := e != nil && !e.tied
					parts, ok := n.partitionDownAdaptive(s, set)
					if !ok {
						t.Fatalf("switch %d: partition failed on healthy tables", s)
					}
					got := checkPartition(t, n, s, set, parts)
					for _, ps := range parts {
						n.putRuns(ps.sub)
					}
					if pass == 0 {
						cold = got
					} else if hit {
						hits++
						if got != cold {
							t.Fatalf("switch %d: cache hit %s, cold partition %s", s, got, cold)
						}
					}
				}
				n.putRuns(set)
			}
		}
		if hits == 0 {
			t.Fatal("no partition was served from the route cache")
		}
	})
}

// coveredSet draws a random switch and a non-empty destination set it
// covers, without the nodes attached to it (planTree delivers those
// locally before partitioning). The set is nil when the switch covers no
// remote node.
func coveredSet(n *Network, r *rng.Source) (topology.SwitchID, *destset.Runs) {
	s := topology.SwitchID(r.Intn(n.topo.NumSwitches))
	var cand []int
	for _, v := range n.rt.Cover[s].Indices() {
		if n.topo.NodeSwitch[v] != s {
			cand = append(cand, v)
		}
	}
	if len(cand) == 0 {
		return s, nil
	}
	set := n.getRuns()
	for _, i := range r.Sample(len(cand), 1+r.Intn(len(cand))) {
		set.Add(cand[i])
	}
	return s, set
}

// checkPartition fails unless parts splits set exactly once across
// distinct down ports of s within their reachability, and renders the
// partition for comparison.
func checkPartition(t *testing.T, n *Network, s topology.SwitchID, set *destset.Runs, parts []portSet) string {
	t.Helper()
	seen := map[int]bool{}
	ports := map[int]bool{}
	out := ""
	for _, ps := range parts {
		if n.rt.Dirs[s][ps.port] != updown.DirDown || ports[ps.port] {
			t.Fatalf("switch %d: branch through port %d is not a fresh down port", s, ps.port)
		}
		ports[ps.port] = true
		if ps.sub.Empty() || !ps.sub.SubsetOf(n.rt.DownReach(s, ps.port)) {
			t.Fatalf("switch %d: branch through port %d is empty or exceeds its reachability", s, ps.port)
		}
		for _, d := range ps.sub.Indices() {
			if seen[d] {
				t.Fatalf("switch %d: destination %d assigned to two branches", s, d)
			}
			seen[d] = true
		}
		out += fmt.Sprintf("%d:%v ", ps.port, ps.sub.Indices())
	}
	want := set.Indices()
	if len(seen) != len(want) {
		t.Fatalf("switch %d: partition delivers %d destinations, want %d", s, len(seen), len(want))
	}
	for _, d := range want {
		if !seen[d] {
			t.Fatalf("switch %d: destination %d on no branch", s, d)
		}
	}
	return out
}
