package destset

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcastsim/internal/bitset"
)

// checkReads holds the planner's reachability reads to a flat reference:
// v (members vb) is the destination set and o (members ob) the
// reachability string. It covers the four reads, UnionWith and String.
func checkReads(t *testing.T, label string, v *Runs, vb *bitset.Set, o *Runs, ob *bitset.Set) {
	t.Helper()
	and := bitset.And(vb, ob)
	inter, subset, count := !and.Empty(), bitset.AndNot(vb, ob).Empty(), and.Count()
	if got := v.Intersects(o); got != inter {
		t.Fatalf("%s: Intersects %v, want %v", label, got, inter)
	}
	if got := v.SubsetOf(o); got != subset {
		t.Fatalf("%s: SubsetOf %v, want %v", label, got, subset)
	}
	if got := v.AndCount(o); got != count {
		t.Fatalf("%s: AndCount %d, want %d", label, got, count)
	}
	full := bitset.New(vb.Len())
	addRange(full, 0, vb.Len()-1)
	dst := runsOf(full) // IntersectInto must overwrite
	v.IntersectInto(dst, o)
	if !dst.EqualBits(and) || dst.Count() != count {
		t.Fatalf("%s: IntersectInto %v, want %v", label, dst.Indices(), and.Indices())
	}
	union := vb.Clone()
	union.UnionWith(ob)
	u := NewRuns(v.Universe())
	u.CopyFrom(v)
	u.UnionWith(o)
	if !u.EqualBits(union) || u.Count() != union.Count() {
		t.Fatalf("%s: UnionWith %v, want %v", label, u.Indices(), union.Indices())
	}
	if v.String() != vb.String() {
		t.Fatalf("%s: String %q, bitset renders %q", label, v.String(), vb.String())
	}
}

// edgeSets returns hand-picked sets over an n-bit universe (n > 130):
// empty and full, runs that touch 0 or n-1, and runs that straddle, end
// exactly on, or end one past a word boundary.
func edgeSets(n int) map[string]*bitset.Set {
	out := map[string]*bitset.Set{}
	for name, runs := range map[string][][2]int{
		"empty":     nil,
		"full":      {{0, n - 1}},
		"first":     {{0, 0}},
		"last":      {{n - 1, n - 1}},
		"ends":      {{0, 5}, {n - 3, n - 1}},
		"straddle":  {{63, 64}, {120, 130}},
		"word":      {{64, 127}},
		"word+1":    {{64, 128}},
		"word-ends": {{0, 63}, {128, n - 1}},
	} {
		s := bitset.New(n)
		for _, r := range runs {
			addRange(s, r[0], r[1])
		}
		out[name] = s
	}
	return out
}

// addRange sets every bit of s in [lo, hi].
func addRange(s *bitset.Set, lo, hi int) {
	for i := lo; i <= hi; i++ {
		s.Add(i)
	}
}

func runsOf(s *bitset.Set) *Runs {
	v := NewRuns(s.Len())
	v.CopyFromBits(s)
	return v
}

// TestPropertyRunsMatchBitset drives a Runs and a bitset oracle through
// identical random Add/Remove sequences over random universes and
// requires every observation to agree: Contains, Count, Indices, the
// planner's reachability reads against a second random set, HeaderBytes
// against the encoded length, the bitset helpers (IvalBytesOf,
// AppendIvalEncoded) against the Runs encoding, the decode round trip,
// and CopyFromBits against a set built one Add at a time, fingerprint
// included. The reads are checked first on every pair of hand-picked
// edge sets.
func TestPropertyRunsMatchBitset(t *testing.T) {
	edges := edgeSets(193)
	for an, a := range edges {
		for bn, b := range edges {
			checkReads(t, an+"/"+bn, runsOf(a), a, runsOf(b), b)
		}
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + r.Intn(700)
		v := NewRuns(universe)
		ref := bitset.New(universe) // independent oracle

		ops := 1 + r.Intn(300)
		for op := 0; op < ops; op++ {
			i := r.Intn(universe)
			if r.Intn(3) == 0 {
				v.Remove(i)
				ref.Remove(i)
			} else {
				v.Add(i)
				ref.Add(i)
			}
		}

		if v.Count() != ref.Count() || v.Empty() != ref.Empty() {
			t.Fatalf("trial %d: runs count %d (empty %v), ref %d (empty %v)",
				trial, v.Count(), v.Empty(), ref.Count(), ref.Empty())
		}
		for probe := 0; probe < 32; probe++ {
			i := r.Intn(universe)
			if v.Contains(i) != ref.Contains(i) {
				t.Fatalf("trial %d: Contains(%d) disagrees", trial, i)
			}
		}
		if !reflect.DeepEqual(v.Indices(), ref.Indices()) {
			t.Fatalf("trial %d: Indices disagree:\nruns %v\nref  %v", trial, v.Indices(), ref.Indices())
		}

		// The reads against a random reachability-like set: a few ranges
		// plus scattered bits, or a superset of v.
		mask := bitset.New(universe)
		for j := r.Intn(4); j > 0; j-- {
			lo := r.Intn(universe)
			addRange(mask, lo, lo+r.Intn(universe-lo))
		}
		for j := r.Intn(universe/8 + 1); j > 0; j-- {
			mask.Add(r.Intn(universe))
		}
		if r.Intn(3) == 0 {
			mask.UnionWith(ref)
		}
		checkReads(t, fmt.Sprintf("trial %d", trial), v, ref, runsOf(mask), mask)

		// Encoded-size accounting and the zero-alloc bitset mirrors.
		enc := v.AppendEncoded(nil)
		if len(enc) != v.HeaderBytes() {
			t.Fatalf("trial %d: encoded %d bytes, HeaderBytes says %d", trial, len(enc), v.HeaderBytes())
		}
		if got := IvalBytesOf(ref); got != len(enc) {
			t.Fatalf("trial %d: IvalBytesOf=%d, Runs encoding is %d bytes", trial, got, len(enc))
		}
		if got := AppendIvalEncoded(nil, ref); !bytes.Equal(got, enc) {
			t.Fatalf("trial %d: AppendIvalEncoded %x != Runs encoding %x", trial, got, enc)
		}

		// Round-trip the interval encoding.
		back := bitset.New(universe)
		n, err := DecodeIvalInto(back, enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(enc) {
			t.Fatalf("trial %d: decode consumed %d of %d bytes", trial, n, len(enc))
		}
		if !back.Equal(ref) {
			t.Fatalf("trial %d: interval round-trip lost members", trial)
		}

		// CopyFromBits agrees with one-Add-at-a-time construction.
		built := NewRuns(universe)
		for _, i := range ref.Indices() {
			built.Add(i)
		}
		copied := NewRuns(universe)
		copied.CopyFromBits(ref)
		if !copied.Equal(built) || !copied.Equal(v) {
			t.Fatalf("trial %d: CopyFromBits != incrementally built set", trial)
		}
		if copied.Fingerprint() != v.Fingerprint() || built.Fingerprint() != v.Fingerprint() {
			t.Fatalf("trial %d: equal sets fingerprint differently", trial)
		}
	}
}

// TestIvalCompression pins the headline numbers: a rack-clustered set in
// a large universe encodes orders of magnitude smaller than the flat bit
// string, and a pathological alternating set degrades gracefully.
func TestIvalCompression(t *testing.T) {
	const universe = 100_000
	s := bitset.New(universe)
	// Eight contiguous 32-host racks spread across the universe.
	for rack := 0; rack < 8; rack++ {
		base := rack * 12_000
		for i := 0; i < 32; i++ {
			s.Add(base + i)
		}
	}
	flatBytes := s.HeaderBytes()
	ivalBytes := IvalBytesOf(s)
	if flatBytes != 12500 {
		t.Fatalf("flat header = %d bytes, want 12500", flatBytes)
	}
	if ivalBytes > flatBytes/10 {
		t.Fatalf("interval header %d bytes exceeds 10%% of flat %d", ivalBytes, flatBytes)
	}
	// 8 runs: ~3 bytes of lo/gap varint + 1 byte length each, + count.
	if ivalBytes > 40 {
		t.Fatalf("interval header %d bytes for 8 runs, want <= 40", ivalBytes)
	}

	// Worst case — alternating bits — must still round-trip.
	w := bitset.New(256)
	for i := 0; i < 256; i += 2 {
		w.Add(i)
	}
	enc := AppendIvalEncoded(nil, w)
	back := bitset.New(256)
	if _, err := DecodeIvalInto(back, enc); err != nil {
		t.Fatalf("alternating decode: %v", err)
	}
	if !back.Equal(w) {
		t.Fatalf("alternating set lost in round-trip")
	}
}

// TestDecodeIvalRejects covers malformed input paths.
func TestDecodeIvalRejects(t *testing.T) {
	u := 64
	ok := AppendIvalEncoded(nil, bitset.FromIndices(u, []int{3, 4, 5, 20}))

	// Truncation at every prefix length must error, never panic.
	for n := 0; n < len(ok); n++ {
		dst := bitset.New(u)
		if _, err := DecodeIvalInto(dst, ok[:n]); err == nil && dst.Count() == 4 {
			t.Fatalf("truncated prefix of %d bytes decoded fully", n)
		}
	}

	// A run past the universe bound errors.
	wide := NewRuns(1024)
	wide.Add(1000)
	wide.Add(1001)
	big := wide.AppendEncoded(nil)
	dst := bitset.New(64)
	if _, err := DecodeIvalInto(dst, big); err == nil {
		t.Fatalf("out-of-universe run decoded without error")
	}
}

// TestEmptyAndFull exercises the degenerate shapes.
func TestEmptyAndFull(t *testing.T) {
	empty := NewRuns(100)
	if !empty.Empty() || empty.Count() != 0 || len(empty.Indices()) != 0 || empty.NumRuns() != 0 {
		t.Fatal("fresh Runs not empty")
	}
	if got := len(empty.AppendEncoded(nil)); got != 1 {
		t.Fatalf("empty Runs encodes to %d bytes, want 1", got)
	}
	fullRuns := NewRuns(100)
	fullBits := bitset.New(100)
	for i := 0; i < 100; i++ {
		fullRuns.Add(i)
		fullBits.Add(i)
	}
	if fullRuns.Count() != 100 || fullRuns.NumRuns() != 1 {
		t.Fatalf("full Runs: count %d in %d runs, want 100 in 1", fullRuns.Count(), fullRuns.NumRuns())
	}
	if !fullRuns.EqualBits(fullBits) {
		t.Fatal("full Runs differs from the full bitset")
	}
	// One full-universe run is the smallest possible interval header.
	full := bitset.New(100_000)
	for i := 0; i < 100_000; i++ {
		full.Add(i)
	}
	if got := IvalBytesOf(full); got > 5 {
		t.Fatalf("full-universe interval header %d bytes, want <= 5", got)
	}
	if got := IvalBytesOf(bitset.New(16)); got != 1 {
		t.Fatalf("empty interval header %d bytes, want 1", got)
	}
}

// TestForEachRun pins the bitset run iterator on word-boundary shapes.
func TestForEachRun(t *testing.T) {
	cases := []struct {
		n    int
		idx  []int
		runs [][2]int
	}{
		{10, nil, nil},
		{10, []int{0}, [][2]int{{0, 0}}},
		{10, []int{9}, [][2]int{{9, 9}}},
		{200, []int{0, 1, 2, 63, 64, 65, 127, 128, 199}, [][2]int{{0, 2}, {63, 65}, {127, 128}, {199, 199}}},
		{128, []int{62, 63, 64, 65}, [][2]int{{62, 65}}},
		{64, []int{0, 2, 4}, [][2]int{{0, 0}, {2, 2}, {4, 4}}},
	}
	for ci, c := range cases {
		s := bitset.FromIndices(c.n, c.idx)
		var got [][2]int
		s.ForEachRun(func(lo, hi int) bool {
			got = append(got, [2]int{lo, hi})
			return true
		})
		if !reflect.DeepEqual(got, c.runs) {
			t.Fatalf("case %d: runs %v, want %v", ci, got, c.runs)
		}
	}
	// Full words: 192 consecutive bits are one run.
	s := bitset.New(300)
	for i := 10; i < 202; i++ {
		s.Add(i)
	}
	count := 0
	s.ForEachRun(func(lo, hi int) bool {
		count++
		if lo != 10 || hi != 201 {
			t.Fatalf("full-word run [%d,%d], want [10,201]", lo, hi)
		}
		return true
	})
	if count != 1 {
		t.Fatalf("full-word shape yielded %d runs", count)
	}
}

// TestRangeHelpers pins AnyInRange, the local-delivery gate's read,
// against brute force.
func TestRangeHelpers(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := NewRuns(300)
	for i := 0; i < 90; i++ {
		s.Add(r.Intn(300))
	}
	for trial := 0; trial < 500; trial++ {
		lo := r.Intn(300)
		hi := lo + r.Intn(300-lo)
		want := false
		for i := lo; i <= hi; i++ {
			want = want || s.Contains(i)
		}
		if got := s.AnyInRange(lo, hi); got != want {
			t.Fatalf("AnyInRange(%d,%d)=%v want %v", lo, hi, got, want)
		}
	}
	if s.AnyInRange(5, 4) {
		t.Fatal("AnyInRange over an empty range reported a member")
	}
}

// TestFingerprint pins the route cache's key digest: equal sets digest
// equal, the universe size is mixed in, and shifting one member changes
// the digest (FNV is not cryptographic; the cache re-checks Equal on a
// hit, but cheap shifts should not collide in practice).
func TestFingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		v := NewRuns(1 + r.Intn(300))
		for i := r.Intn(40); i > 0; i-- {
			v.Add(r.Intn(v.Universe()))
		}
		if v.Fingerprint() != v.Clone().Fingerprint() {
			t.Fatal("equal sets fingerprint differently")
		}
	}
	at := func(n int, idx ...int) *Runs {
		v := NewRuns(n)
		for _, i := range idx {
			v.Add(i)
		}
		return v
	}
	if at(64, 3).Fingerprint() == at(65, 3).Fingerprint() {
		t.Fatal("Fingerprint ignores the universe size")
	}
	if at(128, 0, 64).Fingerprint() == at(128, 0, 65).Fingerprint() {
		t.Fatal("sets one member apart collide")
	}
}
