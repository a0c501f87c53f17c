package destset

import (
	"fmt"
	"math/rand"
	"slices"
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
	dst := fullRuns(vb.Len()) // IntersectInto must overwrite
	v.IntersectInto(dst, o)
	if !sameRuns(dst, and) {
		t.Fatalf("%s: IntersectInto %v in %d runs, want %v in %d", label, dst.Indices(), dst.NumRuns(), and.Indices(), numRuns(and))
	}
	union := vb.Clone()
	union.UnionWith(ob)
	u := NewRuns(v.Universe())
	u.CopyFrom(v)
	u.UnionWith(o)
	if !sameRuns(u, union) {
		t.Fatalf("%s: UnionWith %v in %d runs, want %v in %d", label, u.Indices(), u.NumRuns(), union.Indices(), numRuns(union))
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

// fill sets v to the members of s, one Add at a time in ascending order.
func fill(v *Runs, s *bitset.Set) *Runs {
	v.Clear()
	s.ForEach(func(i int) bool { v.Add(i); return true })
	return v
}

func runsOf(s *bitset.Set) *Runs { return fill(NewRuns(s.Len()), s) }

// fullRuns returns the set of every index in [0, n), n > 0.
func fullRuns(n int) *Runs { return &Runs{n: n, runs: []ivRun{{0, int32(n - 1)}}, count: n} }

// sameRuns reports whether v holds exactly the members of the oracle
// s, count included, in s's maximal runs: with the members equal, an
// equal run count means no two of v's runs touch, so v is canonical.
func sameRuns(v *Runs, s *bitset.Set) bool {
	return v.Universe() == s.Len() && v.Count() == s.Count() &&
		slices.Equal(v.Indices(), s.Indices()) && v.NumRuns() == numRuns(s)
}

// numRuns counts the maximal runs of s: one per member that does not
// follow the previous member directly.
func numRuns(s *bitset.Set) int {
	k, prev := 0, -2
	for _, i := range s.Indices() {
		if i != prev+1 {
			k++
		}
		prev = i
	}
	return k
}

// TestPropertyRunsMatchBitset drives a Runs and a bitset oracle through
// identical random Add/Remove sequences over random universes and
// requires every observation to agree: Contains, Count, Indices, the
// planner's reachability reads against a second random set, HeaderBytes
// against the encoded length, the decode round trip, and a set built
// one ascending Add at a time, fingerprint included. The reads are
// checked first on every pair of hand-picked edge sets.
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
		if !slices.Equal(v.Indices(), ref.Indices()) {
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

		// Encoded-size accounting and the interval round trip.
		enc := v.AppendEncoded(nil)
		if len(enc) != v.HeaderBytes() {
			t.Fatalf("trial %d: encoded %d bytes, HeaderBytes says %d", trial, len(enc), v.HeaderBytes())
		}
		back := NewRuns(universe)
		n, err := back.Decode(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if n != len(enc) {
			t.Fatalf("trial %d: decode consumed %d of %d bytes", trial, n, len(enc))
		}
		if !sameRuns(back, ref) || !back.Equal(v) {
			t.Fatalf("trial %d: interval round-trip lost members", trial)
		}

		// Canonical form: the random edit history and an ascending build
		// hold identical run lists.
		if built := runsOf(ref); !built.Equal(v) || built.Fingerprint() != v.Fingerprint() {
			t.Fatalf("trial %d: ascending build differs from the edited set", trial)
		}
	}
}

// TestIvalCompression pins the headline numbers: a rack-clustered set in
// a large universe encodes orders of magnitude smaller than the flat bit
// string, and a pathological alternating set degrades gracefully.
func TestIvalCompression(t *testing.T) {
	const universe = 100_000
	const flatBytes = (universe + 7) / 8 // the paper's N-bit string
	v := NewRuns(universe)
	// Eight contiguous 32-host racks spread across the universe.
	for rack := 0; rack < 8; rack++ {
		base := rack * 12_000
		for i := 0; i < 32; i++ {
			v.Add(base + i)
		}
	}
	ivalBytes := v.HeaderBytes()
	if ivalBytes > flatBytes/10 {
		t.Fatalf("interval header %d bytes exceeds 10%% of flat %d", ivalBytes, flatBytes)
	}
	// 8 runs: ~3 bytes of lo/gap varint + 1 byte length each, + count.
	if ivalBytes > 40 {
		t.Fatalf("interval header %d bytes for 8 runs, want <= 40", ivalBytes)
	}

	// Worst case — alternating bits — must still round-trip.
	w := NewRuns(256)
	for i := 0; i < 256; i += 2 {
		w.Add(i)
	}
	back := NewRuns(256)
	if _, err := back.Decode(w.AppendEncoded(nil)); err != nil {
		t.Fatalf("alternating decode: %v", err)
	}
	if !back.Equal(w) || back.Count() != 128 {
		t.Fatalf("alternating set lost in round-trip")
	}
}

// TestDecodeIvalRejects covers malformed input paths: every one errors,
// never panics, and leaves the target empty.
func TestDecodeIvalRejects(t *testing.T) {
	const u = 64
	set := NewRuns(u)
	for _, i := range []int{3, 4, 5, 20} {
		set.Add(i)
	}
	ok := set.AppendEncoded(nil) // 02 03 02 0d 00
	bad := map[string][]byte{
		// A run past the universe bound, and a gap field so large that
		// adding it to the previous run's end would wrap around.
		"past universe": {0x01, 0x3f, 0x01},
		"wrapping gap":  {0x02, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00},
		// A needless continuation byte in each field: non-canonical.
		"overlong count":  {0x82, 0x00, 0x03, 0x02, 0x0d, 0x00},
		"overlong lo":     {0x02, 0x83, 0x00, 0x02, 0x0d, 0x00},
		"overlong length": {0x02, 0x03, 0x82, 0x00, 0x0d, 0x00},
		// A run count the input cannot hold: decoding must fail on the
		// missing runs, not reserve room for the count.
		"huge count": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x03, 0x02},
	}
	// Truncation at every prefix length.
	for n := 0; n < len(ok); n++ {
		bad[fmt.Sprintf("prefix %d", n)] = ok[:n]
	}
	for name, b := range bad {
		dst := NewRuns(u)
		dst.Add(7)
		if _, err := dst.Decode(b); err == nil {
			t.Errorf("%s (% x): decoded as %v", name, b, dst.Indices())
		} else if !dst.Empty() {
			t.Errorf("%s: failed decode left %v", name, dst.Indices())
		}
	}
}

// TestEmptyAndFull exercises the degenerate shapes.
func TestEmptyAndFull(t *testing.T) {
	empty := NewRuns(100)
	if !empty.Empty() || empty.Count() != 0 || len(empty.Indices()) != 0 || empty.NumRuns() != 0 {
		t.Fatal("fresh Runs not empty")
	}
	if got := len(empty.AppendEncoded(nil)); got != 1 || empty.HeaderBytes() != 1 {
		t.Fatalf("empty Runs encodes to %d bytes (HeaderBytes %d), want 1", got, empty.HeaderBytes())
	}
	fullBits := bitset.New(100)
	addRange(fullBits, 0, 99)
	if full := runsOf(fullBits); !sameRuns(full, fullBits) {
		t.Fatalf("full Runs: %d members in %d runs, want 100 in 1", full.Count(), full.NumRuns())
	}
	// One full-universe run is the smallest possible interval header.
	if got := fullRuns(100_000).HeaderBytes(); got > 5 {
		t.Fatalf("full-universe interval header %d bytes, want <= 5", got)
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
