package bitset

import (
	"testing"
)

// The run-iteration and range primitives are the sparse hot path: at the
// XL tier every destination-set operation is O(runs), the runs are
// produced by ForEachRun over >=1M-bit universes, and flat sets are read
// against run-coded reachability strings with AnyInRange, CountRange and
// CopyRange.
// These tests drive the word-scan machinery with adversarial patterns —
// single-bit runs, full-universe runs, alternating words, runs straddling
// word boundaries — at that scale, cross-check it against a naive
// per-bit reference, and pin the zero-allocation contract the per-branch
// planning path depends on.

// largeN is deliberately not a multiple of 64 so every pattern also
// exercises the partial final word.
const largeN = 1<<20 + 37

// largePatterns builds the adversarial pattern suite over an n-bit
// universe.
func largePatterns(n int) map[string]*Set {
	pat := map[string]*Set{}

	empty := New(n)
	pat["empty"] = empty

	full := New(n)
	full.AddRange(0, n-1)
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
		racks.AddRange(base, base+1023)
	}
	pat["long-runs"] = racks

	// Runs engineered to straddle word boundaries: [63,64], [127,192],
	// plus single bits at word starts/ends and a run into the final
	// partial word.
	edges := New(n)
	edges.AddRange(63, 64)
	edges.AddRange(127, 192)
	edges.Add(256)
	edges.Add(319)
	edges.AddRange(n-40, n-1)
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

// TestCopyRangeMillionBit copies every pattern's window into a set
// holding a different pattern, over windows chosen to straddle word
// boundaries, split runs, and cover degenerate single-bit ranges: inside
// the window the result must match the source bit for bit, outside it
// the destination must be untouched.
func TestCopyRangeMillionBit(t *testing.T) {
	windows := [][2]int{
		{0, largeN - 1},           // full universe
		{63, 64},                  // word boundary pair
		{64, 127},                 // exactly one word
		{100, 100},                // single bit
		{1, largeN - 2},           // clips both ends
		{8190, 8195},              // splits a long-runs gap edge
		{largeN - 41, largeN - 1}, // final partial word
	}
	pats := largePatterns(largeN)
	for name, s := range pats {
		for _, w := range windows {
			dst := pats["alternating"].Clone()
			dst.CopyRange(s, w[0], w[1])
			want := pats["alternating"].Clone()
			for i := w[0]; i <= w[1]; i++ {
				if s.Contains(i) {
					want.Add(i)
				} else {
					want.Remove(i)
				}
			}
			if !dst.Equal(want) {
				t.Errorf("%s window %v: CopyRange diverged (%d bits set, want %d)", name, w, dst.Count(), want.Count())
			}
		}
	}
}

// TestRangePredicatesMillionBit pins AddRange/AnyInRange/CountRange
// against per-bit equivalents at scale (the hostLo/hostHi local-delivery
// gate and the flat set's reachability reads are built on these).
func TestRangePredicatesMillionBit(t *testing.T) {
	for name, s := range largePatterns(largeN) {
		for _, w := range [][2]int{{0, largeN - 1}, {63, 64}, {500, 500}, {8191, 9300}, {largeN - 40, largeN - 1}} {
			wantCount := 0
			for i := w[0]; i <= w[1]; i++ {
				if s.Contains(i) {
					wantCount++
				}
			}
			wantAny := wantCount > 0
			if got := s.CountRange(w[0], w[1]); got != wantCount {
				t.Errorf("%s: CountRange%v = %v, want %v", name, w, got, wantCount)
			}
			if got := s.AnyInRange(w[0], w[1]); got != wantAny {
				t.Errorf("%s: AnyInRange%v = %v, want %v", name, w, got, wantAny)
			}
		}
	}
	// AddRange == per-bit Add, on a boundary-hostile range.
	a, b := New(largeN), New(largeN)
	a.AddRange(61, 200_131)
	for i := 61; i <= 200_131; i++ {
		b.Add(i)
	}
	if !a.Equal(b) || a.Count() != 200_131-61+1 {
		t.Fatal("AddRange disagrees with per-bit Add")
	}
}

// TestRunIterationZeroAlloc pins the allocation-free contract of the
// iteration and range primitives: the sparse planning path calls them
// per branch, so a single allocation here multiplies by the tree size.
func TestRunIterationZeroAlloc(t *testing.T) {
	pats := largePatterns(largeN)
	dst := New(largeN)
	sink := 0
	for name, s := range pats {
		s := s
		for probe, f := range map[string]func(){
			"ForEachRun": func() {
				s.ForEachRun(func(lo, hi int) bool { sink += hi - lo; return true })
			},
			"RunCount":   func() { sink += s.RunCount() },
			"AnyInRange": func() { sink += boolInt(s.AnyInRange(63, 1<<19)) },
			"CountRange": func() { sink += s.CountRange(63, 1<<19) },
			"CopyRange":  func() { dst.CopyRange(s, 63, 1<<19) },
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

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
