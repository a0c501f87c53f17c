package sim

import (
	"mcastsim/internal/destset"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// routeCache memoizes the three pure routing computations on the worm
// hot path — the climb BFS distance field, the greedy down-partition,
// and the adaptive next-hop candidate list — keyed by the destination
// set's fingerprint (and the switch/phase where the result is local).
//
// Correctness contract:
//
//   - Epoch tagging. Every cached result is a pure function of the
//     routing tables (rt.Cover, rt.DownReach, the distance fields, the
//     port orientations) and the up-link adjacency derived from them.
//     Network.routingEpoch is bumped whenever any of those can change —
//     a reconfiguration table swap (swapRouting) and every applied fault
//     or repair (applyFault, conservatively: stale-but-consistent
//     results would still match the uncached code, but flushing keeps
//     the invariant trivial to audit). The cache lazily compares its
//     epoch on every lookup and flushes all three maps atomically when
//     it lags, so no post-reconfiguration decision can see a pre-fault
//     entry.
//
//   - Fingerprint verification. Set-keyed entries store a clone of the
//     keying set and re-check Equal on every hit, so an FNV collision
//     (or a map-bucket collision between two sets with equal hashes)
//     costs a cache miss, never a wrong route.
//
//   - RNG transparency. The adaptive partition draws one Shuffle of the
//     switch's down-port list per call; a cache hit burns the identical
//     draw sequence with a no-op swap so the arbitration RNG stream —
//     and therefore every downstream tie-break — is byte-identical to
//     the uncached run. Partitions whose greedy choice ever depended on
//     the shuffle (a tied round) are cached as "tied" and always fall
//     through to the full recomputation, which consumes the shuffle
//     naturally. Climb and next-hop lookups are RNG-free; their callers
//     shuffle scratch copies, never cached storage.
//
//   - Ownership. Cached slices and sets are cache-owned and read-only.
//     Hits copy ports/phases into Network scratch slices and partition
//     subsets into pooled sets, so recycling a worm's destination set
//     can never corrupt an entry.
//
// Overflow policy: each map has a hard cap; inserting past it clears the
// whole map. Deterministic (no eviction order dependence) and effectively
// unreachable in the paper's experiment sizes. The caps scale with the
// switch count (init): the historical constants were sized for tens of
// switches, and at datacenter scale the steady-state working set — one
// partition entry per (switch, set) pair a worm actually visits, one hop
// entry per (switch, phase, destination) — exceeds them by orders of
// magnitude, so fixed caps would thrash through clear-on-overflow on
// every multicast.
const (
	climbCacheCapFloor = 1024
	partCacheCapFloor  = 4096
	hopsCacheCapFloor  = 8192
)

type climbEntry struct {
	key  *destset.Runs // keying set as a run snapshot (verified on hit)
	dist []int32       // per-switch up-hop distance to a covering switch, -1 unreachable
}

type partKey struct {
	sw int32
	fp uint64
}

// Cached keying sets and partition subsets are run snapshots: O(runs)
// bytes each, which is what keeps thousands of cached partitions
// affordable at the 1M-host tiers.
type partEntry struct {
	key  *destset.Runs // keying set (verified on hit)
	tied bool          // a greedy round's max was multiply-achieved: result is shuffle-dependent
	// Untied entries only: the partition in pick order.
	ports []int32
	subs  []*destset.Runs
}

type hopKey struct {
	sw    int32
	phase updown.Phase
	dest  int32
}

type hopEntry struct {
	ports  []int
	phases []updown.Phase
}

type routeCache struct {
	epoch       int // routingEpoch the entries were computed under
	disabled    bool
	flushes     int // epoch-lag flushes performed (test observability)
	groupInvals int // per-group membership invalidations (test observability)

	// Per-instance caps, scaled by init to the topology's switch count.
	climbCap int
	partCap  int
	hopsCap  int

	climb map[uint64]*climbEntry
	part  map[partKey]*partEntry
	hops  map[hopKey]*hopEntry
}

func (c *routeCache) init(numSwitches int) {
	// Floors preserve the paper-scale behavior exactly; the per-switch
	// multipliers track how entries accumulate (hops per destination
	// switch and phase, partitions per visited switch).
	c.climbCap = maxInt(climbCacheCapFloor, 2*numSwitches)
	c.partCap = maxInt(partCacheCapFloor, 8*numSwitches)
	c.hopsCap = maxInt(hopsCacheCapFloor, 16*numSwitches)
	c.climb = make(map[uint64]*climbEntry)
	c.part = make(map[partKey]*partEntry)
	c.hops = make(map[hopKey]*hopEntry)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sync flushes every map when the routing epoch has moved since the
// entries were computed.
func (c *routeCache) sync(epoch int) {
	if c.epoch == epoch {
		return
	}
	c.epoch = epoch
	c.flushes++
	clear(c.climb)
	clear(c.part)
	clear(c.hops)
}

// invalidateNode drops every set-keyed entry whose keying set contains
// node — the per-group invalidation a single-member join/leave triggers
// instead of a global epoch flush. Next-hop entries are keyed by
// (switch, phase, destination switch), not by destination set, and stay
// valid across membership changes. Which entries are deleted is a pure
// predicate of the stored sets, so the surviving cache contents are
// deterministic despite map iteration order; RNG transparency is
// untouched (an invalidated partition recomputes and consumes its
// shuffle naturally, exactly as a cold miss would).
func (c *routeCache) invalidateNode(node int) {
	if c.disabled {
		return
	}
	c.groupInvals++
	for fp, e := range c.climb {
		if e.key.Contains(node) {
			delete(c.climb, fp)
		}
	}
	for k, e := range c.part {
		if e.key.Contains(node) {
			delete(c.part, k)
		}
	}
}

// climbDist returns the per-switch shortest all-up-hop distance field to
// any switch covering set (the reverse BFS of climbPorts), cached by the
// set's fingerprint. The returned slice is cache-owned (or Network
// scratch when the cache is disabled or cold-storing): read-only.
func (n *Network) climbDist(set *destset.Runs) []int32 {
	c := &n.cache
	c.sync(n.routingEpoch)
	if !c.disabled {
		fp := set.Fingerprint()
		if e := c.climb[fp]; e != nil && set.Equal(e.key) {
			return e.dist
		}
		dist := n.computeClimbDist(set)
		if len(c.climb) >= c.climbCap {
			clear(c.climb)
		}
		owned := make([]int32, len(dist))
		copy(owned, dist)
		c.climb[fp] = &climbEntry{key: set.Clone(), dist: owned}
		return owned
	}
	return n.computeClimbDist(set)
}

// computeClimbDist runs the reverse BFS over up links from every switch
// covering set, into decision scratch. The seeding pass tests every
// switch's Cover string against the set, one binary search per run of
// the set, so its cost follows run counts rather than the host count.
func (n *Network) computeClimbDist(set *destset.Runs) []int32 {
	S := n.topo.NumSwitches
	dist := n.scr.distScratch
	for i := range dist {
		dist[i] = -1
	}
	q := n.scr.bfsQueue[:0]
	for x := 0; x < S; x++ {
		if set.SubsetOf(n.rt.Cover[x]) {
			dist[x] = 0
			q = append(q, int32(x))
		}
	}
	for head := 0; head < len(q); head++ {
		x := q[head]
		// Predecessors of x along up links: switches with an up port to x.
		for _, s := range n.rt.UpInto(topology.SwitchID(x)) {
			if dist[s] == -1 {
				dist[s] = dist[x] + 1
				q = append(q, int32(s))
			}
		}
	}
	n.scr.bfsQueue = q[:0]
	return dist
}

// nextHops returns the adaptive candidate ports and phases for a packet
// at switch s headed to switch d, through the route cache. The returned
// slices are decision scratch: callers may permute or compact them but
// must not retain them past the current decision.
func (n *Network) nextHops(s topology.SwitchID, ph updown.Phase, d topology.SwitchID) ([]int, []updown.Phase) {
	c := &n.cache
	c.sync(n.routingEpoch)
	if c.disabled {
		return n.rt.NextHops(s, ph, d)
	}
	k := hopKey{sw: int32(s), phase: ph, dest: int32(d)}
	e := c.hops[k]
	if e == nil {
		ports, phases := n.rt.NextHops(s, ph, d)
		if len(c.hops) >= c.hopsCap {
			clear(c.hops)
		}
		e = &hopEntry{ports: ports, phases: phases}
		c.hops[k] = e
	}
	ports := append(n.scr.portScratch[:0], e.ports...)
	phases := append(n.scr.phaseScratch[:0], e.phases...)
	n.scr.portScratch = ports
	n.scr.phaseScratch = phases
	return ports, phases
}
