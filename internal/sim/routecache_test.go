package sim

import (
	"fmt"
	"testing"

	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// treeStormPlan multicasts from src to every other node in the fixture as
// a single tree worm — the workload whose routing decisions (climb BFS,
// down partition, adaptive next hops) the route cache memoizes.
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
		// Cross-switch unicasts exercise the adaptive next-hop cache,
		// which tree worms never consult.
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

	if len(cached.cache.part) == 0 || len(cached.cache.climb) == 0 || len(cached.cache.hops) == 0 {
		t.Fatalf("workload never populated the cache (part=%d climb=%d hops=%d) — equivalence is vacuous",
			len(cached.cache.part), len(cached.cache.climb), len(cached.cache.hops))
	}
	if cached.cache.flushes != 0 {
		t.Fatalf("fault-free run flushed the cache %d times", cached.cache.flushes)
	}
	if cs, us := cached.Stats(), uncached.Stats(); cs != us {
		t.Fatalf("stats diverged:\n cached:   %+v\n uncached: %+v", cs, us)
	}
}

// runFaultScript runs tree traffic, fails a link, drains past the
// reconfiguration, runs more traffic against the swapped tables, repairs
// the link, reconfigures again, and finishes with a final storm. Every
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

	n.RepairLink(0)
	n.RunUntil(n.Now() + settle)
	if n.Stats().Reconfigs != 2 {
		t.Fatalf("expected 2 reconfigurations after the repair, got %d", n.Stats().Reconfigs)
	}
	for _, src := range []topology.NodeID{0, 4, 7} {
		mustRun(t, n, treeStormPlan(src), 48) // decisions under the restored tables
	}
	return evs
}

// TestRouteCacheEpochInvalidation proves the epoch tag actually flushes:
// after a fault and again after a repair, cached decisions must match a
// cache-disabled twin bit for bit. A stale entry surviving either table
// swap would route a worm down a port the new tables never pick and the
// traces would diverge at the first post-reconfiguration grant.
func TestRouteCacheEpochInvalidation(t *testing.T) {
	cached := fixtureNet(t, DefaultParams())
	uncached := fixtureNet(t, DefaultParams())
	uncached.cache.disabled = true

	gotC := runFaultScript(t, cached)
	gotU := runFaultScript(t, uncached)
	diffTraces(t, gotC, gotU)

	// Fault + reconfig, then repair + reconfig: traffic ran between each
	// epoch group, so the lazy sync must have flushed at least twice.
	if cached.cache.flushes < 2 {
		t.Fatalf("cache flushed %d times across fault+repair, want >= 2", cached.cache.flushes)
	}
	if cached.routingEpoch == 0 {
		t.Fatal("routingEpoch never advanced")
	}
	if cs, us := cached.Stats(), uncached.Stats(); cs != us {
		t.Fatalf("stats diverged:\n cached:   %+v\n uncached: %+v", cs, us)
	}
}

// TestRouteCacheWarmDecisionsZeroAlloc pins the allocation-free claim for
// the memoized hot paths: once an entry exists and the pools are primed, a
// climb lookup and a down partition (including handing back the pooled
// subsets) allocate nothing.
func TestRouteCacheWarmDecisionsZeroAlloc(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	set := n.getSet()
	for _, d := range []int{1, 3, 5, 7} {
		set.Add(d)
	}

	// Pick a covering switch for the partition and a non-covering one for
	// the climb, from the live tables rather than assuming the root's ID.
	coverer, climber := topology.SwitchID(-1), topology.SwitchID(-1)
	for s := 0; s < 8; s++ {
		if n.rt.Covers(topology.SwitchID(s), set) {
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
		out, ok := n.partitionDownAdaptive(coverer, dset{bits: set})
		if !ok {
			t.Fatal("partition failed on healthy tables")
		}
		for _, ps := range out {
			n.putDset(ps.sub)
		}
	}
	climb := func() {
		if ports := n.climbPorts(climber, dset{bits: set}); len(ports) == 0 {
			t.Fatalf("no climb ports from switch %d", climber)
		}
	}

	// Warm: first calls populate the cache (and may allocate the entries).
	partition()
	climb()

	if allocs := testing.AllocsPerRun(200, partition); allocs != 0 {
		t.Fatalf("warm partitionDownAdaptive allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, climb); allocs != 0 {
		t.Fatalf("warm climbPorts allocates %.1f/op, want 0", allocs)
	}
	n.putSet(set)
}

// TestPartitionDownAdaptiveExactlyOnce pins the down partition's
// contract at covering switches: every destination lands on exactly one
// branch, each branch leaves through a distinct down port and stays
// within that port's DownReach. It holds on the cold path and on a
// route-cache hit (which must hand back the cold partition), for flat
// and run-coded sets.
func TestPartitionDownAdaptiveExactlyOnce(t *testing.T) {
	for _, rep := range []SetRep{RepFlat, RepSparse} {
		t.Run(rep.String(), func(t *testing.T) {
			p := DefaultParams()
			p.SetRep = rep
			hits := 0
			for seed := uint64(60); seed < 64; seed++ {
				n := randomNet(t, topology.DefaultConfig(), p, seed)
				r := rng.New(seed)
				for trial := 0; trial < 40; trial++ {
					s, set := coveredSet(n, r)
					if !set.some() {
						continue
					}
					var cold string
					for pass := 0; pass < 2; pass++ {
						e := n.cache.part[partKey{sw: int32(s), fp: destFP(set)}]
						hit := e != nil && !e.tied
						parts, ok := n.partitionDownAdaptive(s, set)
						if !ok {
							t.Fatalf("switch %d: partition failed on healthy tables", s)
						}
						got := checkPartition(t, n, s, set, parts)
						for _, ps := range parts {
							n.putDset(ps.sub)
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
					n.putDset(set)
				}
			}
			if hits == 0 {
				t.Fatal("no partition was served from the route cache")
			}
		})
	}
}

// coveredSet draws a random switch and a non-empty destination set it
// covers, without the nodes attached to it (planTree delivers those
// locally before partitioning). The set is unset when the switch covers
// no remote node.
func coveredSet(n *Network, r *rng.Source) (topology.SwitchID, dset) {
	s := topology.SwitchID(r.Intn(n.topo.NumSwitches))
	var cand []int
	for _, v := range n.rt.Cover[s].Indices() {
		if n.topo.NodeSwitch[v] != s {
			cand = append(cand, v)
		}
	}
	if len(cand) == 0 {
		return s, dset{}
	}
	set := n.getDset()
	for _, i := range r.Sample(len(cand), 1+r.Intn(len(cand))) {
		set.add(cand[i])
	}
	return s, set
}

// checkPartition fails unless parts splits set exactly once across
// distinct down ports of s within their reachability, and renders the
// partition for comparison.
func checkPartition(t *testing.T, n *Network, s topology.SwitchID, set dset, parts []portSet) string {
	t.Helper()
	seen := map[int]bool{}
	ports := map[int]bool{}
	out := ""
	for _, ps := range parts {
		if n.rt.Dirs[s][ps.port] != updown.DirDown || ports[ps.port] {
			t.Fatalf("switch %d: branch through port %d is not a fresh down port", s, ps.port)
		}
		ports[ps.port] = true
		if ps.sub.empty() || !ps.sub.subsetOfBits(n.rt.DownReach[s][ps.port]) {
			t.Fatalf("switch %d: branch through port %d is empty or exceeds its reachability", s, ps.port)
		}
		for _, d := range ps.sub.indices() {
			if seen[d] {
				t.Fatalf("switch %d: destination %d assigned to two branches", s, d)
			}
			seen[d] = true
		}
		out += fmt.Sprintf("%d:%v ", ps.port, ps.sub.indices())
	}
	want := set.indices()
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
