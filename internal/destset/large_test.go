package destset

import (
	"bytes"
	"testing"

	"mcastsim/internal/bitset"
)

// Large-universe coverage for Runs: at the XL tier every destination set
// the planner holds is a *Runs over a >=1M-bit universe, and the wire
// codec works on the same members as flat bit strings. These tests drive
// both forms with the same adversarial patterns the bitset suite uses,
// pin the contracts between them (equal run structure, equal wire
// encodings, equal header sizes), and assert the read paths stay
// allocation-free.

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

// TestRunsBitsRoundTripMillionBit: CopyFromBits then FromIndices is an
// exact round trip for every adversarial pattern, and the run structure
// matches the bitset's own run scan.
func TestRunsBitsRoundTripMillionBit(t *testing.T) {
	for name, s := range bigPatterns(bigN) {
		v := NewRuns(bigN)
		v.CopyFromBits(s)
		if v.Count() != s.Count() {
			t.Errorf("%s: Count %d, bitset %d", name, v.Count(), s.Count())
		}
		if v.NumRuns() != s.RunCount() {
			t.Errorf("%s: NumRuns %d, bitset RunCount %d", name, v.NumRuns(), s.RunCount())
		}
		if !v.EqualBits(s) {
			t.Errorf("%s: EqualBits false after CopyFromBits", name)
		}
		if back := bitset.FromIndices(bigN, v.Indices()); !back.Equal(s) {
			t.Errorf("%s: round trip through Indices diverged", name)
		}
		// Run-by-run agreement with the flat scan.
		var flat [][2]int
		s.ForEachRun(func(lo, hi int) bool { flat = append(flat, [2]int{lo, hi}); return true })
		var sparse [][2]int
		v.ForEachRun(func(lo, hi int) bool { sparse = append(sparse, [2]int{lo, hi}); return true })
		if len(flat) != len(sparse) {
			t.Fatalf("%s: %d sparse runs vs %d flat", name, len(sparse), len(flat))
		}
		for i := range flat {
			if flat[i] != sparse[i] {
				t.Fatalf("%s: run %d is %v sparse vs %v flat", name, i, sparse[i], flat[i])
			}
		}
	}
}

// TestRunsWireContractsMillionBit pins the two cross-representation
// equalities the simulator relies on for byte-identical traces:
// Runs.HeaderBytes == IvalBytesOf and Runs.AppendEncoded ==
// AppendIvalEncoded, over every pattern.
func TestRunsWireContractsMillionBit(t *testing.T) {
	for name, s := range bigPatterns(bigN) {
		v := NewRuns(bigN)
		v.CopyFromBits(s)
		if got, want := v.HeaderBytes(), IvalBytesOf(s); got != want {
			t.Errorf("%s: HeaderBytes %d, IvalBytesOf %d", name, got, want)
		}
		a := v.AppendEncoded(nil)
		b := AppendIvalEncoded(nil, s)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: wire encodings differ (%d vs %d bytes)", name, len(a), len(b))
		}
		if len(a) != v.HeaderBytes() {
			t.Errorf("%s: HeaderBytes %d != encoded length %d", name, v.HeaderBytes(), len(a))
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
	if !v.EqualBits(mirror) || v.Count() != mirror.Count() || v.NumRuns() != mirror.RunCount() {
		t.Fatalf("mutation mirror diverged: %d members in %d runs vs %d in %d",
			v.Count(), v.NumRuns(), mirror.Count(), mirror.RunCount())
	}
}

// TestRunsSetOpsMillionBit checks the planner's reachability reads
// (runs x runs and bits x runs), UnionWith and DifferenceWith against
// flat-set equivalents on pattern pairs.
func TestRunsSetOpsMillionBit(t *testing.T) {
	pats := bigPatterns(bigN)
	names := []string{"empty", "full", "alternating", "single-bits", "long-runs", "word-edges"}
	for _, an := range names {
		a := runsOf(pats[an])
		for _, bn := range names {
			bbits := pats[bn]
			brs := runsOf(bbits)
			checkReads(t, an+"/"+bn, a, pats[an], brs, bbits)
			diff := NewRuns(bigN)
			diff.CopyFrom(a)
			diff.DifferenceWith(brs)
			wantDiff := bitset.AndNot(pats[an], bbits)
			if !diff.EqualBits(wantDiff) {
				t.Errorf("%s∖%s: DifferenceWith diverged (%d members, want %d)",
					an, bn, diff.Count(), wantDiff.Count())
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
	v := NewRuns(bigN)
	v.CopyFromBits(pats["alternating"])
	v.Clear()
	if !v.Empty() || v.NumRuns() != 0 || v.Count() != 0 {
		t.Fatal("Clear left members behind")
	}
	v.CopyFromBits(pats["word-edges"])
	fresh := NewRuns(bigN)
	fresh.CopyFromBits(pats["word-edges"])
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
// bitset helpers the wire codec sizes and encodes interval headers with.
func TestRunsIterationZeroAlloc(t *testing.T) {
	pats := bigPatterns(bigN)
	sink := 0
	reach := runsOf(pats["long-runs"])
	for _, name := range []string{"alternating", "long-runs", "word-edges"} {
		v := runsOf(pats[name])
		inter := NewRuns(bigN)
		flat := pats[name]
		enc := make([]byte, 0, len(AppendIvalEncoded(nil, flat)))
		for probe, f := range map[string]func(){
			"ForEachRun": func() {
				v.ForEachRun(func(lo, hi int) bool { sink += hi - lo; return true })
			},
			"AnyInRange":        func() { sink += boolInt(v.AnyInRange(63, 1<<19)) },
			"Contains":          func() { sink += boolInt(v.Contains(1 << 19)) },
			"Fingerprint":       func() { sink += int(v.Fingerprint()) },
			"HeaderBytes":       func() { sink += v.HeaderBytes() },
			"Intersects":        func() { sink += boolInt(v.Intersects(reach)) },
			"SubsetOf":          func() { sink += boolInt(v.SubsetOf(reach)) },
			"AndCount":          func() { sink += v.AndCount(reach) },
			"IntersectInto":     func() { v.IntersectInto(inter, reach); sink += inter.Count() },
			"IvalBytesOf":       func() { sink += IvalBytesOf(flat) },
			"AppendIvalEncoded": func() { enc = AppendIvalEncoded(enc[:0], flat); sink += len(enc) },
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
