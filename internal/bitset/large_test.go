package bitset

import (
	"testing"
)

// The run-iteration primitives feed the interval coding: the wire codec
// sizes and encodes a flat destination string's runs with RunCount and
// ForEachRun over >=1M-bit universes at the XL tier.
// These tests drive the word-scan machinery with adversarial patterns —
// single-bit runs, full-universe runs, alternating words, runs straddling
// word boundaries — at that scale, cross-check it against a naive
// per-bit reference, and pin the zero-allocation contract.

// largeN is deliberately not a multiple of 64 so every pattern also
// exercises the partial final word.
const largeN = 1<<20 + 37

// addRange sets every bit in [lo, hi].
func addRange(s *Set, lo, hi int) {
	for i := lo; i <= hi; i++ {
		s.Add(i)
	}
}

// largePatterns builds the adversarial pattern suite over an n-bit
// universe.
func largePatterns(n int) map[string]*Set {
	pat := map[string]*Set{}

	empty := New(n)
	pat["empty"] = empty

	full := New(n)
	addRange(full, 0, n-1)
	pat["full"] = full

	// Alternating bits: every run is a single bit and every word holds 32
	// of them — the worst case for run iteration.
	alt := New(n)
	for i := 0; i < n; i += 2 {
		alt.Add(i)
	}
	pat["alternating"] = alt

	// Sparse single bits at a stride coprime to 64, so run starts drift
	// through every bit position of a word.
	single := New(n)
	for i := 0; i < n; i += 97 {
		single.Add(i)
	}
	pat["single-bits"] = single

	// Rack-like long runs (the scale sweep's destination shape): 1024-bit
	// runs every 8192 bits.
	racks := New(n)
	for base := 0; base+1024 <= n; base += 8192 {
		addRange(racks, base, base+1023)
	}
	pat["long-runs"] = racks

	// Runs engineered to straddle word boundaries: [63,64], [127,192],
	// plus single bits at word starts/ends and a run into the final
	// partial word.
	edges := New(n)
	addRange(edges, 63, 64)
	addRange(edges, 127, 192)
	edges.Add(256)
	edges.Add(319)
	addRange(edges, n-40, n-1)
	pat["word-edges"] = edges

	return pat
}

// refRuns computes the maximal runs of s by scanning every bit.
func refRuns(s *Set) [][2]int {
	var out [][2]int
	inRun := false
	lo := 0
	for i := 0; i < s.Len(); i++ {
		if s.Contains(i) {
			if !inRun {
				inRun, lo = true, i
			}
		} else if inRun {
			out = append(out, [2]int{lo, i - 1})
			inRun = false
		}
	}
	if inRun {
		out = append(out, [2]int{lo, s.Len() - 1})
	}
	return out
}

func collectRuns(s *Set) [][2]int {
	var out [][2]int
	s.ForEachRun(func(lo, hi int) bool {
		out = append(out, [2]int{lo, hi})
		return true
	})
	return out
}

func runsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestForEachRunMillionBit(t *testing.T) {
	for name, s := range largePatterns(largeN) {
		ref := refRuns(s)
		got := collectRuns(s)
		if !runsEqual(got, ref) {
			t.Errorf("%s: ForEachRun produced %d runs, reference %d (first diff near %v vs %v)",
				name, len(got), len(ref), head(got), head(ref))
		}
		if rc := s.RunCount(); rc != len(ref) {
			t.Errorf("%s: RunCount %d, reference %d", name, rc, len(ref))
		}
		// Early exit: stopping after the first run visits exactly one.
		if len(ref) > 1 {
			n := 0
			s.ForEachRun(func(lo, hi int) bool { n++; return false })
			if n != 1 {
				t.Errorf("%s: early-exit ForEachRun visited %d runs", name, n)
			}
		}
	}
}

func head(r [][2]int) [][2]int {
	if len(r) > 3 {
		return r[:3]
	}
	return r
}

// TestRunIterationZeroAlloc pins the allocation-free contract of the
// iteration primitives: sizing an interval header must not allocate.
func TestRunIterationZeroAlloc(t *testing.T) {
	pats := largePatterns(largeN)
	sink := 0
	for name, s := range pats {
		s := s
		for probe, f := range map[string]func(){
			"ForEachRun": func() {
				s.ForEachRun(func(lo, hi int) bool { sink += hi - lo; return true })
			},
			"RunCount": func() { sink += s.RunCount() },
		} {
			if allocs := testing.AllocsPerRun(2, f); allocs != 0 {
				t.Errorf("%s on %s: %v allocs/op, want 0", probe, name, allocs)
			}
		}
	}
	if sink == 1<<62 {
		t.Log(sink) // keep the measured work observable
	}
}
