package sim

import (
	"mcastsim/internal/destset"
	"mcastsim/internal/topology"
)

// routeCache memoizes the two set-keyed routing computations on the
// tree-worm hot path — the climb BFS distance field and the greedy
// down-partition — keyed by the destination set's fingerprint (and the
// switch where the result is local).
//
// Correctness contract:
//
//   - One lifetime. Every cached result is a pure function of the
//     routing tables n.rt (rt.Cover, the up-link views, rt.DownLinks)
//     and its key. Nothing else can make an entry stale: a fault leaves
//     n.rt as it is (dead ports are filtered after every decision,
//     cached or not), and a membership delta only changes which set a
//     later lookup keys on. So swapRouting, the only code that replaces
//     n.rt, is the only code that empties the cache.
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
//     naturally. Climb lookups are RNG-free; their callers read the
//     distance field into scratch port lists, never cached storage.
//
//   - Ownership. Cached slices and sets are cache-owned and read-only.
//     Hits copy partition subsets into pooled sets, so recycling a
//     worm's destination set can never corrupt an entry.
//
// Overflow policy: each map has a hard cap; inserting past it clears the
// whole map. Deterministic (no eviction order dependence) and effectively
// unreachable in the paper's experiment sizes. The caps scale with the
// switch count (init): the historical constants were sized for tens of
// switches, and at datacenter scale the steady-state working set — one
// partition entry per (switch, set) pair a worm actually visits —
// exceeds them by orders of magnitude, so fixed caps would thrash
// through clear-on-overflow on every multicast.
const (
	climbCacheCapFloor = 1024
	partCacheCapFloor  = 4096
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

type routeCache struct {
	disabled bool // the uncached reference: every lookup recomputes

	// Per-instance caps, scaled by init to the topology's switch count.
	climbCap int
	partCap  int

	climb map[uint64]*climbEntry
	part  map[partKey]*partEntry
}

func (c *routeCache) init(numSwitches int) {
	// Floors preserve the paper-scale behavior exactly; the per-switch
	// multipliers track how entries accumulate (partitions per visited
	// switch).
	c.climbCap = max(climbCacheCapFloor, 2*numSwitches)
	c.partCap = max(partCacheCapFloor, 8*numSwitches)
	c.climb = make(map[uint64]*climbEntry)
	c.part = make(map[partKey]*partEntry)
}

// reset empties both maps: the entries were computed under routing
// tables that swapRouting has just replaced.
func (c *routeCache) reset() {
	clear(c.climb)
	clear(c.part)
}

// climbDist returns the per-switch shortest all-up-hop distance field to
// any switch covering set (the reverse BFS of climbPorts), cached by the
// set's fingerprint. The returned slice is cache-owned (or Network
// scratch when the cache is disabled): read-only.
func (n *Network) climbDist(set *destset.Runs) []int32 {
	c := &n.cache
	if c.disabled {
		return n.computeClimbDist(set)
	}
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
