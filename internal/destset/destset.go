// Package destset abstracts the destination set a multidestination worm
// carries, so header encodings beyond the paper's flat N-bit string can be
// swapped in at datacenter scale.
//
// The paper's tree worm carries one bit per host (§3.2.3) — exact and
// cheap at N ≤ 256, but a 12.5 KB header at 100k hosts. P3FA's
// observation (Jin & Jia) is that real multicast destination sets have
// low egress diversity: members cluster under few subtrees, so a list of
// per-subtree index ranges encodes the same set in a handful of bytes.
// Two backends implement that trade:
//
//   - Flat: the existing bitset.Set bit string, byte-identical to the
//     paper's headers. Header cost is ceil(N/8) regardless of content.
//   - Ival: a canonical sorted list of maximal runs [lo, hi] of member
//     indices, wire-encoded with varints (see AppendIvalEncoded). Header
//     cost scales with the number of runs, not the universe.
//
// Hosts are numbered contiguously per edge switch by the scale
// generators (internal/topology), so "subtree" and "index range"
// coincide and rack-local groups collapse to single runs.
//
// The simulator keeps pooled bitsets internally; IvalBytesOf and
// IvalFingerprintOf compute a bitset's interval header size and
// fingerprint without materializing an Ival set, so the hot path stays
// allocation-free under either coding.
package destset

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mcastsim/internal/bitset"
)

// Backend names a destination-set representation.
type Backend int

const (
	// Flat is the paper's N-bit destination string backend.
	Flat Backend = iota
	// Ival is the interval-coded (per-subtree range) backend.
	Ival
)

// String renders the backend for table notes and flags.
func (b Backend) String() string {
	switch b {
	case Flat:
		return "flat"
	case Ival:
		return "ival"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// DestSet is a mutable set of destination indices over a fixed universe
// [0, Universe()). Implementations must agree on membership semantics —
// the property tests in this package drive Flat and Ival through
// identical operation sequences and require identical observations.
type DestSet interface {
	// Universe returns the index-space size (the host count).
	Universe() int
	// Add inserts index i; panics when i is outside the universe.
	Add(i int)
	// Remove deletes index i; panics when i is outside the universe.
	Remove(i int)
	// Contains reports membership of i.
	Contains(i int) bool
	// Count returns the member count.
	Count() int
	// Empty reports whether the set has no members.
	Empty() bool
	// Indices returns the members in ascending order.
	Indices() []int
	// ForEach visits members in ascending order until fn returns false.
	ForEach(fn func(i int) bool)
	// Intersects reports whether any member is set in o (same universe).
	Intersects(o *bitset.Set) bool
	// AndCount returns how many members are set in o (same universe).
	AndCount(o *bitset.Set) int
	// Clone returns an independent copy with the same backend.
	Clone() DestSet
	// Equal reports whether o holds exactly the same members over the
	// same universe, regardless of backend.
	Equal(o DestSet) bool
	// Fingerprint returns a 64-bit digest of the encoded form. Equal
	// sets of the same backend fingerprint equal; collisions are
	// tolerated by callers (the route cache re-checks equality on hit).
	Fingerprint() uint64
	// HeaderBytes returns the wire size of the encoded set in bytes
	// (flits — a flit is one byte), excluding the worm tag.
	HeaderBytes() int
	// AppendEncoded appends the wire encoding to dst and returns it.
	AppendEncoded(dst []byte) []byte
	// Backend names the representation.
	Backend() Backend
}

// New returns an empty DestSet of the given backend and universe.
func New(b Backend, universe int) DestSet {
	switch b {
	case Flat:
		return &FlatSet{bits: bitset.New(universe)}
	case Ival:
		if universe < 0 {
			panic("destset: negative universe")
		}
		return &IvalSet{n: universe}
	default:
		panic(fmt.Sprintf("destset: unknown backend %d", int(b)))
	}
}

// FromBits returns a DestSet of the given backend holding a copy of s's
// members.
func FromBits(b Backend, s *bitset.Set) DestSet {
	switch b {
	case Flat:
		return &FlatSet{bits: s.Clone()}
	case Ival:
		iv := &IvalSet{n: s.Len()}
		s.ForEachRun(func(lo, hi int) bool {
			iv.runs = append(iv.runs, ivRun{int32(lo), int32(hi)})
			iv.count += hi - lo + 1
			return true
		})
		return iv
	default:
		panic(fmt.Sprintf("destset: unknown backend %d", int(b)))
	}
}

// FromIndices returns a DestSet of the given backend and universe with
// the listed members.
func FromIndices(b Backend, universe int, idx []int) DestSet {
	s := New(b, universe)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// FlatSet is the bit-string backend: a thin veneer over bitset.Set whose
// wire form is the paper's N-bit destination string.
type FlatSet struct {
	bits *bitset.Set
}

// Bits exposes the underlying bitset (shared, not a copy) so the
// simulator can run its pooled bit operations directly.
func (f *FlatSet) Bits() *bitset.Set { return f.bits }

func (f *FlatSet) Universe() int               { return f.bits.Len() }
func (f *FlatSet) Add(i int)                   { f.bits.Add(i) }
func (f *FlatSet) Remove(i int)                { f.bits.Remove(i) }
func (f *FlatSet) Contains(i int) bool         { return f.bits.Contains(i) }
func (f *FlatSet) Count() int                  { return f.bits.Count() }
func (f *FlatSet) Empty() bool                 { return f.bits.Empty() }
func (f *FlatSet) Indices() []int              { return f.bits.Indices() }
func (f *FlatSet) ForEach(fn func(i int) bool) { f.bits.ForEach(fn) }

func (f *FlatSet) Intersects(o *bitset.Set) bool { return f.bits.Intersects(o) }
func (f *FlatSet) AndCount(o *bitset.Set) int    { return bitset.AndCount(f.bits, o) }

func (f *FlatSet) Clone() DestSet      { return &FlatSet{bits: f.bits.Clone()} }
func (f *FlatSet) Fingerprint() uint64 { return f.bits.Hash() }
func (f *FlatSet) HeaderBytes() int    { return f.bits.HeaderBytes() }
func (f *FlatSet) Backend() Backend    { return Flat }

func (f *FlatSet) Equal(o DestSet) bool {
	if of, ok := o.(*FlatSet); ok {
		return f.bits.Equal(of.bits)
	}
	return sameMembers(f, o)
}

// AppendEncoded appends the N-bit destination string, bit i of byte i/8
// set for member i — the body of wire.EncodeTree.
func (f *FlatSet) AppendEncoded(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, f.bits.HeaderBytes())...)
	f.bits.ForEach(func(i int) bool {
		dst[start+i/8] |= 1 << (uint(i) % 8)
		return true
	})
	return dst
}

// ivRun is one maximal interval [lo, hi] of member indices.
type ivRun struct{ lo, hi int32 }

// IvalSet is the interval backend: a canonical (sorted, coalesced — every
// inter-run gap is at least 2) run list. Mutations keep the invariant, so
// equal sets always hold identical run slices.
type IvalSet struct {
	n     int
	runs  []ivRun
	count int
}

func (v *IvalSet) Universe() int    { return v.n }
func (v *IvalSet) Count() int       { return v.count }
func (v *IvalSet) Empty() bool      { return v.count == 0 }
func (v *IvalSet) Backend() Backend { return Ival }

func (v *IvalSet) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("destset: index %d out of range [0,%d)", i, v.n))
	}
}

// search returns the index of the first run with hi >= i.
func (v *IvalSet) search(i int) int {
	return sort.Search(len(v.runs), func(j int) bool { return v.runs[j].hi >= int32(i) })
}

func (v *IvalSet) Contains(i int) bool {
	v.check(i)
	idx := v.search(i)
	return idx < len(v.runs) && v.runs[idx].lo <= int32(i)
}

func (v *IvalSet) Add(i int) {
	v.check(i)
	idx := v.search(i)
	if idx < len(v.runs) && v.runs[idx].lo <= int32(i) {
		return // already a member
	}
	// i falls strictly between runs[idx-1] and runs[idx].
	joinL := idx > 0 && v.runs[idx-1].hi == int32(i)-1
	joinR := idx < len(v.runs) && v.runs[idx].lo == int32(i)+1
	switch {
	case joinL && joinR: // bridges the two neighbors into one run
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

func (v *IvalSet) Remove(i int) {
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
	default: // interior removal splits the run
		v.runs = append(v.runs, ivRun{})
		copy(v.runs[idx+1:], v.runs[idx:])
		v.runs[idx].hi = int32(i) - 1
		v.runs[idx+1].lo = int32(i) + 1
	}
	v.count--
}

func (v *IvalSet) Indices() []int {
	out := make([]int, 0, v.count)
	for _, r := range v.runs {
		for i := r.lo; i <= r.hi; i++ {
			out = append(out, int(i))
		}
	}
	return out
}

func (v *IvalSet) ForEach(fn func(i int) bool) {
	for _, r := range v.runs {
		for i := r.lo; i <= r.hi; i++ {
			if !fn(int(i)) {
				return
			}
		}
	}
}

func (v *IvalSet) sameLen(o *bitset.Set) {
	if v.n != o.Len() {
		panic(fmt.Sprintf("destset: universe mismatch %d vs %d", v.n, o.Len()))
	}
}

func (v *IvalSet) Intersects(o *bitset.Set) bool {
	v.sameLen(o)
	for _, r := range v.runs {
		if o.AnyInRange(int(r.lo), int(r.hi)) {
			return true
		}
	}
	return false
}

func (v *IvalSet) AndCount(o *bitset.Set) int {
	v.sameLen(o)
	c := 0
	for _, r := range v.runs {
		c += o.CountRange(int(r.lo), int(r.hi))
	}
	return c
}

func (v *IvalSet) Clone() DestSet {
	c := &IvalSet{n: v.n, count: v.count, runs: make([]ivRun, len(v.runs))}
	copy(c.runs, v.runs)
	return c
}

func (v *IvalSet) Equal(o DestSet) bool {
	if ov, ok := o.(*IvalSet); ok {
		if v.n != ov.n || len(v.runs) != len(ov.runs) {
			return false
		}
		for i, r := range v.runs {
			if r != ov.runs[i] {
				return false
			}
		}
		return true
	}
	return sameMembers(v, o)
}

// Fingerprint hashes (universe, run list) with FNV-1a, matching
// IvalFingerprintOf over a bitset holding the same members.
func (v *IvalSet) Fingerprint() uint64 {
	h := fnvSeed(v.n)
	for _, r := range v.runs {
		h = fnvMix(h, uint64(r.lo))
		h = fnvMix(h, uint64(r.hi))
	}
	return h
}

func (v *IvalSet) HeaderBytes() int {
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

// AppendEncoded appends the run-list wire encoding:
//
//	uvarint(k)                      run count
//	run 0:   uvarint(lo) uvarint(hi-lo)
//	run j>0: uvarint(lo_j - hi_{j-1} - 2) uvarint(hi-lo)
//
// Canonical runs are separated by gaps of at least 2, so the gap field
// is biased by 2 and a value of 0 means the tightest legal spacing.
func (v *IvalSet) AppendEncoded(dst []byte) []byte {
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

// sameMembers compares two DestSets member-by-member (cross-backend
// Equal fallback; not on any hot path).
func sameMembers(a, b DestSet) bool {
	if a.Universe() != b.Universe() || a.Count() != b.Count() {
		return false
	}
	same := true
	a.ForEach(func(i int) bool {
		if !b.Contains(i) {
			same = false
		}
		return same
	})
	return same
}

// fnvSeed starts a FNV-1a digest mixed with the universe size.
func fnvSeed(universe int) uint64 {
	const offset64 = 14695981039346656037
	return fnvMix(offset64, uint64(universe))
}

// fnvMix folds one value into a FNV-1a digest.
func fnvMix(h, v uint64) uint64 {
	const prime64 = 1099511628211
	h ^= v
	h *= prime64
	return h
}

// uvarintLen returns the encoded size of x in bytes.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// IvalBytesOf returns the interval wire encoding's size for the members
// of s, without materializing an IvalSet. Allocation-free; the simulator
// uses it to size tree-worm headers under the interval coding.
func IvalBytesOf(s *bitset.Set) int {
	b := 0
	runs := 0
	prevHi := 0
	s.ForEachRun(func(lo, hi int) bool {
		if runs == 0 {
			b += uvarintLen(uint64(lo))
		} else {
			b += uvarintLen(uint64(lo - prevHi - 2))
		}
		b += uvarintLen(uint64(hi - lo))
		prevHi = hi
		runs++
		return true
	})
	return b + uvarintLen(uint64(runs))
}

// IvalFingerprintOf returns the fingerprint an IvalSet holding s's
// members would return, without materializing one. Allocation-free; the
// route cache keys on it when the interval coding is active.
func IvalFingerprintOf(s *bitset.Set) uint64 {
	h := fnvSeed(s.Len())
	s.ForEachRun(func(lo, hi int) bool {
		h = fnvMix(h, uint64(lo))
		h = fnvMix(h, uint64(hi))
		return true
	})
	return h
}

// AppendIvalEncoded appends the interval wire encoding of s's members to
// dst — the zero-copy analog of FromBits(Ival, s).AppendEncoded(dst).
// The leading run count comes from the branch-free word scan
// (bitset.RunCount) rather than a counting ForEachRun pass, so the set's
// words are only run-iterated once.
func AppendIvalEncoded(dst []byte, s *bitset.Set) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.RunCount()))
	prevHi := 0
	first := true
	s.ForEachRun(func(lo, hi int) bool {
		if first {
			dst = binary.AppendUvarint(dst, uint64(lo))
			first = false
		} else {
			dst = binary.AppendUvarint(dst, uint64(lo-prevHi-2))
		}
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
		prevHi = hi
		return true
	})
	return dst
}

// DecodeIvalInto decodes an interval wire encoding into dst (which must
// be empty and sized to the universe), returning the number of bytes
// consumed. It rejects truncated input, out-of-range indices,
// non-canonical gaps, and trailing garbage is left to the caller (the
// byte count tells it where the encoding ended).
func DecodeIvalInto(dst *bitset.Set, b []byte) (int, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("destset: truncated or overlong varint at byte %d", pos)
		}
		pos += n
		return v, nil
	}
	k, err := next()
	if err != nil {
		return 0, err
	}
	prevHi := 0
	for j := uint64(0); j < k; j++ {
		loField, err := next()
		if err != nil {
			return 0, err
		}
		length, err := next()
		if err != nil {
			return 0, err
		}
		var lo int
		if j == 0 {
			lo = int(loField)
		} else {
			lo = prevHi + 2 + int(loField)
		}
		hi := lo + int(length)
		if lo < 0 || hi >= dst.Len() || hi < lo {
			return 0, fmt.Errorf("destset: decoded run [%d,%d] outside universe %d", lo, hi, dst.Len())
		}
		for i := lo; i <= hi; i++ {
			dst.Add(i)
		}
		prevHi = hi
	}
	return pos, nil
}
