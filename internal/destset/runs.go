package destset

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// ivRun is one maximal interval [lo, hi] of member indices.
type ivRun struct{ lo, hi int32 }

// Runs is the simulator-facing mutable run-list set: a canonical list of
// sorted maximal runs [lo, hi], every inter-run gap at least 2, built for
// pooling and in-place mutation on the hot planning path. A tree worm's
// remaining-destination set at datacenter scale is a handful of rack
// runs, so planning operations cost O(runs) or O(runs x span/64) instead
// of O(universe/64).
//
// All operations preserve canonical form, so two Runs holding the same
// members always hold identical run slices and equal Fingerprints.
type Runs struct {
	n     int
	runs  []ivRun
	count int
	spare []ivRun // scratch for DifferenceWith's merge; reused across calls
}

// NewRuns returns an empty Runs over universe [0, n).
func NewRuns(n int) *Runs {
	if n < 0 {
		panic("destset: negative universe")
	}
	return &Runs{n: n}
}

// Universe returns the index-space size.
func (v *Runs) Universe() int { return v.n }

// Count returns the member count.
func (v *Runs) Count() int { return v.count }

// Empty reports whether the set has no members.
func (v *Runs) Empty() bool { return v.count == 0 }

// NumRuns returns the number of maximal runs.
func (v *Runs) NumRuns() int { return len(v.runs) }

// Clear empties the set in place, keeping capacity for reuse.
func (v *Runs) Clear() {
	v.runs = v.runs[:0]
	v.count = 0
}

func (v *Runs) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("destset: index %d out of range [0,%d)", i, v.n))
	}
}

// search returns the index of the first run with hi >= i.
func (v *Runs) search(i int) int { return seek(v.runs, 0, int32(i)) }

// Contains reports membership of i.
func (v *Runs) Contains(i int) bool {
	v.check(i)
	idx := v.search(i)
	return idx < len(v.runs) && v.runs[idx].lo <= int32(i)
}

// Add inserts index i, coalescing with adjacent runs.
func (v *Runs) Add(i int) {
	v.check(i)
	idx := v.search(i)
	if idx < len(v.runs) && v.runs[idx].lo <= int32(i) {
		return // already a member
	}
	joinL := idx > 0 && v.runs[idx-1].hi == int32(i)-1
	joinR := idx < len(v.runs) && v.runs[idx].lo == int32(i)+1
	switch {
	case joinL && joinR:
		v.runs[idx-1].hi = v.runs[idx].hi
		v.runs = append(v.runs[:idx], v.runs[idx+1:]...)
	case joinL:
		v.runs[idx-1].hi = int32(i)
	case joinR:
		v.runs[idx].lo = int32(i)
	default:
		v.runs = append(v.runs, ivRun{})
		copy(v.runs[idx+1:], v.runs[idx:])
		v.runs[idx] = ivRun{int32(i), int32(i)}
	}
	v.count++
}

// Remove deletes index i, splitting its run if interior.
func (v *Runs) Remove(i int) {
	v.check(i)
	idx := v.search(i)
	if idx == len(v.runs) || v.runs[idx].lo > int32(i) {
		return // not a member
	}
	r := v.runs[idx]
	switch {
	case r.lo == r.hi:
		v.runs = append(v.runs[:idx], v.runs[idx+1:]...)
	case int32(i) == r.lo:
		v.runs[idx].lo++
	case int32(i) == r.hi:
		v.runs[idx].hi--
	default:
		v.runs = append(v.runs, ivRun{})
		copy(v.runs[idx+1:], v.runs[idx:])
		v.runs[idx].hi = int32(i) - 1
		v.runs[idx+1].lo = int32(i) + 1
	}
	v.count--
}

// appendRun appends [lo, hi] which must start at least 2 past the last
// run's hi (callers iterate sources in canonical ascending order, so this
// holds by construction; coalesce anyway to be safe against touching runs).
func (v *Runs) appendRun(lo, hi int32) {
	if k := len(v.runs); k > 0 && v.runs[k-1].hi >= lo-1 {
		if hi > v.runs[k-1].hi {
			v.count += int(hi - v.runs[k-1].hi)
			v.runs[k-1].hi = hi
		}
		return
	}
	v.runs = append(v.runs, ivRun{lo, hi})
	v.count += int(hi-lo) + 1
}

// CopyFrom sets v to an exact copy of o in place (same universe required).
func (v *Runs) CopyFrom(o *Runs) {
	v.sameLen(o)
	v.runs = append(v.runs[:0], o.runs...)
	v.count = o.count
}

// Clone returns an independent copy of v.
func (v *Runs) Clone() *Runs {
	return &Runs{n: v.n, runs: append([]ivRun(nil), v.runs...), count: v.count}
}

// Indices returns the members in ascending order.
func (v *Runs) Indices() []int {
	out := make([]int, 0, v.count)
	for _, r := range v.runs {
		for i := r.lo; i <= r.hi; i++ {
			out = append(out, int(i))
		}
	}
	return out
}

// ForEach visits members in ascending order until fn returns false.
func (v *Runs) ForEach(fn func(i int) bool) {
	for _, r := range v.runs {
		for i := r.lo; i <= r.hi; i++ {
			if !fn(int(i)) {
				return
			}
		}
	}
}

// String renders the set as the paper draws reachability strings: one
// 0/1 character per index, index 0 leftmost, capped at 128 characters
// with an ellipsis — the same text bitset.Set.String gives.
func (v *Runs) String() string {
	const maxRender = 128
	b := []byte(strings.Repeat("0", min(v.n, maxRender)))
	for _, r := range v.runs {
		for i := int(r.lo); i <= int(r.hi) && i < len(b); i++ {
			b[i] = '1'
		}
	}
	if v.n > maxRender {
		return string(b) + "…"
	}
	return string(b)
}

// AnyInRange reports whether any member falls in [lo, hi].
func (v *Runs) AnyInRange(lo, hi int) bool {
	if lo > hi {
		return false
	}
	idx := v.search(lo)
	return idx < len(v.runs) && int(v.runs[idx].lo) <= hi
}

// Equal reports whether v and o hold the same members over the same
// universe. Canonical form makes this a run-slice comparison.
func (v *Runs) Equal(o *Runs) bool {
	if v.n != o.n || len(v.runs) != len(o.runs) {
		return false
	}
	for i, r := range v.runs {
		if r != o.runs[i] {
			return false
		}
	}
	return true
}

// Fingerprint returns the FNV-1a digest of (universe, run list), the
// route cache's key for a destination set.
func (v *Runs) Fingerprint() uint64 {
	h := fnvSeed(v.n)
	for _, r := range v.runs {
		h = fnvMix(h, uint64(r.lo))
		h = fnvMix(h, uint64(r.hi))
	}
	return h
}

// HeaderBytes returns the interval wire encoding's size in bytes.
func (v *Runs) HeaderBytes() int {
	b := uvarintLen(uint64(len(v.runs)))
	prevHi := int32(0)
	for i, r := range v.runs {
		if i == 0 {
			b += uvarintLen(uint64(r.lo))
		} else {
			b += uvarintLen(uint64(r.lo - prevHi - 2))
		}
		b += uvarintLen(uint64(r.hi - r.lo))
		prevHi = r.hi
	}
	return b
}

// AppendEncoded appends the interval wire encoding of v to dst and
// returns it:
//
//	uvarint(k)                      run count
//	run 0:   uvarint(lo) uvarint(hi-lo)
//	run j>0: uvarint(lo_j - hi_{j-1} - 2) uvarint(hi-lo)
//
// Canonical runs are separated by gaps of at least 2, so the gap field
// is biased by 2 and a value of 0 means the tightest legal spacing.
func (v *Runs) AppendEncoded(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v.runs)))
	prevHi := int32(0)
	for i, r := range v.runs {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(r.lo))
		} else {
			dst = binary.AppendUvarint(dst, uint64(r.lo-prevHi-2))
		}
		dst = binary.AppendUvarint(dst, uint64(r.hi-r.lo))
		prevHi = r.hi
	}
	return dst
}

// Decode sets v to the members of the interval wire encoding at the
// start of b and returns the number of bytes it consumed; what follows
// is the caller's to judge. Only the canonical encoding is accepted, so
// a decoded set re-encodes to exactly the bytes read: Decode rejects
// truncated input, a varint longer than its value needs, and a run
// outside the universe. The run list grows with the runs actually read,
// never from the count field. On error v is left empty.
func (v *Runs) Decode(b []byte) (int, error) {
	v.Clear()
	pos := 0
	next := func() (uint64, error) {
		x, n := binary.Uvarint(b[pos:])
		if n <= 0 || n != uvarintLen(x) {
			return 0, fmt.Errorf("destset: truncated or overlong varint at byte %d", pos)
		}
		pos += n
		return x, nil
	}
	fail := func(err error) (int, error) {
		v.Clear()
		return 0, err
	}
	k, err := next()
	if err != nil {
		return fail(err)
	}
	hi := -2 // the gap field of run 0 is its lo, so lo = hi + 2 + field
	for j := uint64(0); j < k; j++ {
		loField, err := next()
		if err != nil {
			return fail(err)
		}
		length, err := next()
		if err != nil {
			return fail(err)
		}
		// Bounding each field first keeps the sum from overflowing.
		if loField >= uint64(v.n) || length >= uint64(v.n) || hi+2+int(loField+length) >= v.n {
			return fail(fmt.Errorf("destset: run %d reaches past universe %d", j, v.n))
		}
		lo := hi + 2 + int(loField)
		hi = lo + int(length)
		v.runs = append(v.runs, ivRun{int32(lo), int32(hi)})
		v.count += hi - lo + 1
	}
	return pos, nil
}

func (v *Runs) sameLen(o *Runs) {
	if v.n != o.n {
		mismatch(v.n, o.n)
	}
}

// mismatch panics on a universe mismatch, which only a bug produces. It
// is kept out of line so the checks above inline into the reads.
//
//go:noinline
func mismatch(a, b int) {
	panic(fmt.Sprintf("destset: universe mismatch %d vs %d", a, b))
}

// The planner reads a switch's reachability strings (updown.Routing's
// Cover and DownReach) four ways: intersects, subset, and-count and
// intersect-into. Each is called on the destination set v with the
// reachability string as o, and binary-searches each run of v in o, so
// it costs O(k_v log k_o) and allocates nothing beyond the output's run
// list.

// seek returns the index of the first run at or after from with hi >= i.
func seek(runs []ivRun, from int, i int32) int {
	lo, hi := from, len(runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if runs[m].hi < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Intersects reports whether v and o share a member.
func (v *Runs) Intersects(o *Runs) bool {
	v.sameLen(o)
	j := 0
	for _, r := range v.runs {
		if j = seek(o.runs, j, r.lo); j == len(o.runs) {
			return false
		}
		if o.runs[j].lo <= r.hi {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of v is in o — the Covers test.
// Runs are maximal, so each run of v must lie inside a single run of o.
func (v *Runs) SubsetOf(o *Runs) bool {
	v.sameLen(o)
	j := 0
	for _, r := range v.runs {
		if j = seek(o.runs, j, r.lo); j == len(o.runs) || o.runs[j].lo > r.lo || o.runs[j].hi < r.hi {
			return false
		}
	}
	return true
}

// AndCount returns how many members v shares with o — the greedy
// down-partition's scoring primitive.
func (v *Runs) AndCount(o *Runs) int {
	v.sameLen(o)
	c, j := 0, 0
	for _, r := range v.runs {
		j = seek(o.runs, j, r.lo)
		for k := j; k < len(o.runs) && o.runs[k].lo <= r.hi; k++ {
			c += int(min(r.hi, o.runs[k].hi)-max(r.lo, o.runs[k].lo)) + 1
		}
	}
	return c
}

// IntersectInto sets dst = v & o in place (dst must not alias v or o).
// Clipping v's ascending runs against o's keeps dst canonical: two clips
// of one run of v are split by a gap of o, and clips of different runs by
// a gap of v.
func (v *Runs) IntersectInto(dst, o *Runs) {
	v.sameLen(o)
	v.sameLen(dst)
	dst.Clear()
	j := 0
	for _, r := range v.runs {
		j = seek(o.runs, j, r.lo)
		for k := j; k < len(o.runs) && o.runs[k].lo <= r.hi; k++ {
			dst.appendRun(max(r.lo, o.runs[k].lo), min(r.hi, o.runs[k].hi))
		}
	}
}

// UnionWith sets v = v | o in place with a single O(k_v + k_o) run merge
// through the spare buffer. It is how up*/down* reachability strings are
// built: a switch's down set is its own hosts united with the down sets
// of the switches below it.
func (v *Runs) UnionWith(o *Runs) {
	v.sameLen(o)
	old := v.runs
	a, b := old, o.runs
	v.runs, v.count = v.spare[:0], 0
	for len(a) > 0 || len(b) > 0 {
		var r ivRun
		if len(b) == 0 || (len(a) > 0 && a[0].lo <= b[0].lo) {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		v.appendRun(r.lo, r.hi)
	}
	v.spare = old[:0]
}

// DifferenceWith sets v = v &^ o in place with a single O(k_v + k_o)
// run merge through the spare buffer.
func (v *Runs) DifferenceWith(o *Runs) {
	v.sameLen(o)
	if len(o.runs) == 0 || len(v.runs) == 0 {
		return
	}
	out := v.spare[:0]
	count := 0
	oi := 0
	for _, r := range v.runs {
		lo := r.lo
		for oi < len(o.runs) && o.runs[oi].hi < lo {
			oi++
		}
		// Clip [lo, r.hi] against every o-run overlapping it. oi only
		// advances when an o-run ends before the current position, so the
		// walk is linear over both lists.
		for j := oi; j < len(o.runs) && o.runs[j].lo <= r.hi; j++ {
			if o.runs[j].lo > lo {
				out = append(out, ivRun{lo, o.runs[j].lo - 1})
				count += int(o.runs[j].lo - lo)
			}
			if o.runs[j].hi >= r.hi {
				lo = r.hi + 1
				break
			}
			lo = o.runs[j].hi + 1
		}
		if lo <= r.hi {
			out = append(out, ivRun{lo, r.hi})
			count += int(r.hi-lo) + 1
		}
	}
	v.spare = v.runs[:0]
	v.runs = out
	v.count = count
}
