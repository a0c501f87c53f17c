package destset

import (
	"testing"

	"mcastsim/internal/bitset"
)

// Large-universe coverage for Runs: at the XL tier every destination set
// the planner holds is a *Runs over a >=1M-bit universe. These tests
// build Runs from adversarial patterns (single-bit runs, full-universe
// runs, alternating bits, runs straddling word boundaries), hold every
// result to a flat bitset oracle, round-trip each pattern through the
// interval wire encoding, and assert the read paths stay allocation-free.

const bigN = 1<<20 + 37

func bigPatterns(n int) map[string]*bitset.Set {
	pat := map[string]*bitset.Set{}
	empty := bitset.New(n)
	pat["empty"] = empty
	full := bitset.New(n)
	addRange(full, 0, n-1)
	pat["full"] = full
	alt := bitset.New(n)
	for i := 0; i < n; i += 2 {
		alt.Add(i)
	}
	pat["alternating"] = alt
	single := bitset.New(n)
	for i := 0; i < n; i += 97 {
		single.Add(i)
	}
	pat["single-bits"] = single
	racks := bitset.New(n)
	for base := 0; base+1024 <= n; base += 8192 {
		addRange(racks, base, base+1023)
	}
	pat["long-runs"] = racks
	edges := bitset.New(n)
	addRange(edges, 63, 64)
	addRange(edges, 127, 192)
	edges.Add(256)
	edges.Add(319)
	addRange(edges, n-40, n-1)
	pat["word-edges"] = edges
	return pat
}

// bigRuns builds each pattern's Runs one ascending Add at a time.
func bigRuns(pats map[string]*bitset.Set) map[string]*Runs {
	out := make(map[string]*Runs, len(pats))
	for name, s := range pats {
		out[name] = runsOf(s)
	}
	return out
}

// TestRunsBitsRoundTripMillionBit: a Runs built from every adversarial
// pattern holds exactly the pattern's members, in the pattern's maximal
// runs, and reads back into the same flat set.
func TestRunsBitsRoundTripMillionBit(t *testing.T) {
	pats := bigPatterns(bigN)
	for name, v := range bigRuns(pats) {
		s := pats[name]
		if !sameRuns(v, s) {
			t.Errorf("%s: %d members in %d runs, oracle %d in %d (or Indices differ)",
				name, v.Count(), v.NumRuns(), s.Count(), numRuns(s))
		}
		if back := bitset.FromIndices(bigN, v.Indices()); !back.Equal(s) {
			t.Errorf("%s: round trip through Indices diverged", name)
		}
	}
}

// TestRunsWireContractsMillionBit pins the interval coding over every
// pattern: HeaderBytes equals the encoded length, and decoding the
// encoding consumes all of it and yields the same set.
func TestRunsWireContractsMillionBit(t *testing.T) {
	for name, v := range bigRuns(bigPatterns(bigN)) {
		enc := v.AppendEncoded(nil)
		if len(enc) != v.HeaderBytes() {
			t.Errorf("%s: HeaderBytes %d != encoded length %d", name, v.HeaderBytes(), len(enc))
		}
		back := NewRuns(bigN)
		n, err := back.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if n != len(enc) || !back.Equal(v) || back.Count() != v.Count() {
			t.Errorf("%s: decode consumed %d of %d bytes, %d members of %d", name, n, len(enc), back.Count(), v.Count())
		}
	}
}

// TestRunsMutateMillionBit drives Add/Remove through the adversarial
// canonicalization cases at high indices: merging three runs into one,
// splitting a long run, and peeling run endpoints — each verified
// against a flat mirror.
func TestRunsMutateMillionBit(t *testing.T) {
	v := NewRuns(bigN)
	mirror := bitset.New(bigN)
	do := func(add bool, i int) {
		if add {
			v.Add(i)
			mirror.Add(i)
		} else {
			v.Remove(i)
			mirror.Remove(i)
		}
		if v.Contains(i) != add {
			t.Fatalf("Contains(%d) = %v after %v", i, v.Contains(i), add)
		}
	}
	base := 1 << 19
	// Build two runs with a one-bit hole, then fill it: three runs merge.
	for i := base; i < base+100; i++ {
		do(true, i)
	}
	for i := base + 101; i < base+200; i++ {
		do(true, i)
	}
	do(true, base+100)
	if v.NumRuns() != 1 {
		t.Fatalf("merge left %d runs, want 1", v.NumRuns())
	}
	// Split the run in the middle, then peel both endpoints.
	do(false, base+50)
	do(false, base)
	do(false, base+199)
	// Adjacent-run formation at word boundaries near the universe edge.
	do(true, bigN-1)
	do(true, bigN-3)
	do(true, bigN-2)
	if !sameRuns(v, mirror) {
		t.Fatalf("mutation mirror diverged: %d members in %d runs vs %d in %d",
			v.Count(), v.NumRuns(), mirror.Count(), numRuns(mirror))
	}
}

// TestRunsSetOpsMillionBit checks the planner's reachability reads,
// UnionWith and DifferenceWith against flat-set equivalents on pattern
// pairs.
func TestRunsSetOpsMillionBit(t *testing.T) {
	pats := bigPatterns(bigN)
	runs := bigRuns(pats)
	for an, a := range runs {
		for bn, brs := range runs {
			bbits := pats[bn]
			checkReads(t, an+"/"+bn, a, pats[an], brs, bbits)
			diff := NewRuns(bigN)
			diff.CopyFrom(a)
			diff.DifferenceWith(brs)
			wantDiff := bitset.AndNot(pats[an], bbits)
			if !sameRuns(diff, wantDiff) {
				t.Errorf("%s∖%s: DifferenceWith diverged (%d members in %d runs, want %d in %d)",
					an, bn, diff.Count(), diff.NumRuns(), wantDiff.Count(), numRuns(wantDiff))
			}
		}
	}
}

// TestRunsPoolReuseMillionBit pins the pooling discipline the simulator
// leans on: a Cleared Runs re-filled from a different pattern is
// indistinguishable from a fresh one (no stale runs, counts, or spare-
// buffer aliasing), even when the previous occupant was the worst-case
// alternating pattern.
func TestRunsPoolReuseMillionBit(t *testing.T) {
	pats := bigPatterns(bigN)
	v := runsOf(pats["alternating"])
	v.Clear()
	if !v.Empty() || v.NumRuns() != 0 || v.Count() != 0 {
		t.Fatal("Clear left members behind")
	}
	fill(v, pats["word-edges"])
	fresh := runsOf(pats["word-edges"])
	if !v.Equal(fresh) || v.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("reused Runs differs from a fresh one")
	}
	// CopyFrom and Clone must produce independent values: mutating the
	// source may not disturb a copy (the route cache stores cloned keys
	// and expands hits into pooled sets with CopyFrom).
	snap := NewRuns(bigN)
	snap.CopyFrom(v)
	clone := v.Clone()
	v.Remove(63)
	v.Add(1 << 18)
	if !snap.Equal(fresh) {
		t.Fatal("mutating the source leaked into its CopyFrom snapshot")
	}
	if !clone.Equal(fresh) || clone.Count() != fresh.Count() || clone.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("mutating the source leaked into its Clone")
	}
}

// TestRunsIterationZeroAlloc pins the allocation-free contract of the
// read paths the per-branch planning loop calls, of the planner's
// reachability reads (once the output's run list has grown), and of the
// interval coder the header model and the wire codec use (once the
// buffer or run list has grown).
func TestRunsIterationZeroAlloc(t *testing.T) {
	runs := bigRuns(bigPatterns(bigN))
	sink := 0
	reach := runs["long-runs"]
	for _, name := range []string{"alternating", "long-runs", "word-edges"} {
		v := runs[name]
		inter := NewRuns(bigN)
		enc := v.AppendEncoded(nil)
		back := v.Clone()
		for probe, f := range map[string]func(){
			"AnyInRange":    func() { sink += boolInt(v.AnyInRange(63, 1<<19)) },
			"Contains":      func() { sink += boolInt(v.Contains(1 << 19)) },
			"Fingerprint":   func() { sink += int(v.Fingerprint()) },
			"HeaderBytes":   func() { sink += v.HeaderBytes() },
			"Intersects":    func() { sink += boolInt(v.Intersects(reach)) },
			"SubsetOf":      func() { sink += boolInt(v.SubsetOf(reach)) },
			"AndCount":      func() { sink += v.AndCount(reach) },
			"IntersectInto": func() { v.IntersectInto(inter, reach); sink += inter.Count() },
			"AppendEncoded": func() { enc = v.AppendEncoded(enc[:0]); sink += len(enc) },
			"Decode":        func() { n, _ := back.Decode(enc); sink += n },
		} {
			if allocs := testing.AllocsPerRun(2, f); allocs != 0 {
				t.Errorf("%s on %s: %v allocs/op, want 0", probe, name, allocs)
			}
		}
	}
	if sink == 1<<62 {
		t.Log(sink)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
