package sim

import (
	"mcastsim/internal/bitset"
	"mcastsim/internal/destset"
)

// dset is the planner's destination-set currency: a tree worm's remaining
// destinations, a down-partition subset, a group snapshot. Exactly one of
// bits/runs is non-nil on a live dset; which one is uniform per Network
// (chosen once by Params.SetRep at New), so the hot path never mixes
// representations and the branch predictor sees one arm.
//
//   - bits: the paper's flat N-bit string (bitset.Set). O(N/64) words per
//     set operation — exact historical behavior at paper/S/M sizes.
//   - runs: the interval-coded run list (destset.Runs). Operations cost
//     O(runs) or O(runs × span/64): at the 1M-host tiers a rack-clustered
//     multicast is a handful of runs instead of a 125 KB bit string, which
//     is what lets the XL tier flit-simulate in commodity RAM.
//
// Every method is a pure membership operation, so the two representations
// are observation-equivalent: identical predicates, identical iteration
// order, identical RNG draw sequences downstream. The S/M golden tests pin
// byte-identical traces for both.
type dset struct {
	bits *bitset.Set
	runs *destset.Runs
}

// some reports whether the dset holds a set at all (the nil-pointer check
// of the old *bitset.Set field).
func (d dset) some() bool { return d.bits != nil || d.runs != nil }

func (d dset) count() int {
	if d.bits != nil {
		return d.bits.Count()
	}
	return d.runs.Count()
}

func (d dset) empty() bool {
	if d.bits != nil {
		return d.bits.Empty()
	}
	return d.runs.Empty()
}

func (d dset) contains(i int) bool {
	if d.bits != nil {
		return d.bits.Contains(i)
	}
	return d.runs.Contains(i)
}

func (d dset) add(i int) {
	if d.bits != nil {
		d.bits.Add(i)
		return
	}
	d.runs.Add(i)
}

func (d dset) remove(i int) {
	if d.bits != nil {
		d.bits.Remove(i)
		return
	}
	d.runs.Remove(i)
}

// copyFrom sets d to a copy of o. Both sides come from the same network's
// pools, so the representations always match.
func (d dset) copyFrom(o dset) {
	if d.bits != nil {
		d.bits.CopyFrom(o.bits)
		return
	}
	d.runs.CopyFrom(o.runs)
}

// indices returns the members ascending (cold paths: errors, traces).
func (d dset) indices() []int {
	if d.bits != nil {
		return d.bits.Indices()
	}
	return d.runs.Indices()
}

// anyInRange reports whether any member falls in [lo, hi] — the local-
// delivery gate against a switch's contiguous host range.
func (d dset) anyInRange(lo, hi int) bool {
	if d.bits != nil {
		return d.bits.AnyInRange(lo, hi)
	}
	return d.runs.AnyInRange(lo, hi)
}

// The four reads against a switch's run-coded reachability string o
// (updown.Routing's DownReach and Cover). The flat arm probes d's words
// one run or gap of o at a time; the sparse arm looks each run of d up
// in o's runs.

// intersects reports whether d shares a member with o.
func (d dset) intersects(o *destset.Runs) bool {
	if d.bits != nil {
		return o.IntersectsBits(d.bits)
	}
	return d.runs.Intersects(o)
}

// subsetOf reports whether every member of d is in o — the Covers test.
func (d dset) subsetOf(o *destset.Runs) bool {
	if d.bits != nil {
		return o.CoversBits(d.bits)
	}
	return d.runs.SubsetOf(o)
}

// andCount returns how many members d shares with o — the greedy
// down-partition's scoring primitive.
func (d dset) andCount(o *destset.Runs) int {
	if d.bits != nil {
		return o.AndCountBits(d.bits)
	}
	return d.runs.AndCount(o)
}

// intersectInto sets dst = d & o (dst from the same network's pools; must
// not alias d).
func (d dset) intersectInto(dst dset, o *destset.Runs) {
	if d.bits != nil {
		o.IntersectBitsInto(dst.bits, d.bits)
		return
	}
	d.runs.IntersectInto(dst.runs, o)
}

// differenceWith sets d = d &^ o in place.
func (d dset) differenceWith(o dset) {
	if d.bits != nil {
		d.bits.DifferenceWith(o.bits)
		return
	}
	d.runs.DifferenceWith(o.runs)
}

// equalRuns reports whether d holds exactly the members of the cached run
// snapshot r — the route cache's verify-on-hit step.
func (d dset) equalRuns(r *destset.Runs) bool {
	if d.bits != nil {
		return r.EqualBits(d.bits)
	}
	return d.runs.Equal(r)
}

// cloneRuns returns a fresh cache-owned run snapshot of d's members.
func (d dset) cloneRuns() *destset.Runs {
	var r *destset.Runs
	if d.bits != nil {
		r = destset.NewRuns(d.bits.Len())
		r.CopyFromBits(d.bits)
	} else {
		r = destset.NewRuns(d.runs.Universe())
		r.CopyFrom(d.runs)
	}
	return r
}

// copyFromRuns sets d to the members of the cached run snapshot r — the
// route cache's hit-expansion step into a pooled set.
func (d dset) copyFromRuns(r *destset.Runs) {
	if d.bits != nil {
		r.WriteToBits(d.bits)
		return
	}
	d.runs.CopyFrom(r)
}

// ivalHeaderBytes returns the interval-coded wire size of d's members
// (tree-worm header sizing under HeaderIval).
func (d dset) ivalHeaderBytes() int {
	if d.bits != nil {
		return destset.IvalBytesOf(d.bits)
	}
	return d.runs.HeaderBytes()
}
