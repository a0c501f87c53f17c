package bitset

import (
	"slices"
	"testing"
	"testing/quick"

	"mcastsim/internal/rng"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() || s.Count() != 0 || s.Len() != 100 {
		t.Fatalf("New(100) not empty: count=%d len=%d", s.Count(), s.Len())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // crosses a word boundary
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("bit %d set before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("bit %d not set after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 7 {
		t.Fatal("Remove failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for name, fn := range map[string]func(*Set){
		"Add-high":  func(s *Set) { s.Add(10) },
		"Add-neg":   func(s *Set) { s.Add(-1) },
		"Contains":  func(s *Set) { s.Contains(10) },
		"Remove":    func(s *Set) { s.Remove(10) },
		"NegLength": func(s *Set) { New(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn(New(10))
		})
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed universes did not panic")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(64, []int{1, 5, 9})
	b := FromIndices(64, []int{5, 9, 20})

	u := a.Clone()
	u.UnionWith(b)
	if got := u.Indices(); len(got) != 4 || got[0] != 1 || got[3] != 20 {
		t.Fatalf("union = %v", got)
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got := i.Indices(); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("intersection = %v", got)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if got := d.Indices(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("difference = %v", got)
	}
}

// The destset, updown and sim property suites check the planner's four
// reachability reads on run-coded sets against flat references: And for
// intersects, and-count and intersect-into, AndNot for subset. These
// tests hold those references to per-bit membership.

// bothBrute returns the indices set in both a and b, one Contains at a
// time.
func bothBrute(a, b *Set) []int {
	var out []int
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && b.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

// subsetBrute reports whether every index set in a is set in b.
func subsetBrute(a, b *Set) bool {
	for i := 0; i < a.Len(); i++ {
		if a.Contains(i) && !b.Contains(i) {
			return false
		}
	}
	return true
}

func TestIntersectsMatchesAnd(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				a.Add(i)
			}
			if r.Intn(4) == 0 {
				b.Add(i)
			}
		}
		if got, want := !And(a, b).Empty(), len(bothBrute(a, b)) > 0; got != want {
			t.Fatalf("And non-empty = %v, per-bit intersection %v (n=%d)", got, want, n)
		}
	}
}

func TestSubsetOf(t *testing.T) {
	subsetOf := func(a, b *Set) bool { return AndNot(a, b).Empty() }
	a := FromIndices(70, []int{3, 66})
	b := FromIndices(70, []int{3, 10, 66})
	if !subsetOf(a, b) {
		t.Fatal("a should be subset of b")
	}
	if subsetOf(b, a) {
		t.Fatal("b should not be subset of a")
	}
	if !subsetOf(a, a) {
		t.Fatal("a should be subset of itself")
	}
	empty := New(70)
	if !subsetOf(empty, a) {
		t.Fatal("empty should be subset of anything")
	}
	if subsetOf(a, empty) {
		t.Fatal("a should not be subset of the empty set")
	}
	r := rng.New(5)
	for trial := 0; trial < 300; trial++ {
		a, b := randomPair(r)
		if r.Intn(2) == 0 {
			a.IntersectWith(b) // make subsets common
		}
		if got, want := subsetOf(a, b), subsetBrute(a, b); got != want {
			t.Fatalf("AndNot empty = %v, per-bit subset = %v (n=%d)", got, want, a.Len())
		}
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(32, []int{0, 31})
	b := FromIndices(32, []int{0, 31})
	c := FromIndices(32, []int{0})
	d := FromIndices(33, []int{0, 31})
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal misbehaves")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(10, []int{2})
	b := a.Clone()
	b.Add(3)
	if a.Contains(3) {
		t.Fatal("Clone shares storage")
	}
}

func TestIndicesRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 300
		s := New(n)
		want := map[int]bool{}
		for _, v := range raw {
			i := int(v) % n
			s.Add(i)
			want[i] = true
		}
		idx := s.Indices()
		if len(idx) != len(want) {
			return false
		}
		prev := -1
		for _, i := range idx {
			if i <= prev || !want[i] {
				return false
			}
			prev = i
		}
		return s.Count() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(100, []int{1, 2, 3, 4})
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 2 {
		t.Fatalf("ForEach early stop visited %v", visited)
	}
}

func TestString(t *testing.T) {
	s := FromIndices(8, []int{1, 4})
	if got := s.String(); got != "01001000" {
		t.Fatalf("String = %q, want 01001000", got)
	}
}

func TestDeMorgan(t *testing.T) {
	// (A ∪ B) \ (A ∩ B) == symmetric difference, built two ways.
	f := func(rawA, rawB []uint8) bool {
		const n = 128
		a, b := New(n), New(n)
		for _, v := range rawA {
			a.Add(int(v) % n)
		}
		for _, v := range rawB {
			b.Add(int(v) % n)
		}
		lhs := a.Clone()
		lhs.UnionWith(b)
		lhs.DifferenceWith(And(a, b))

		aOnly := a.Clone()
		aOnly.DifferenceWith(b)
		bOnly := b.Clone()
		bOnly.DifferenceWith(a)
		rhs := aOnly
		rhs.UnionWith(bOnly)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomPair builds two random same-universe sets for the and-count and
// and-into property tests.
func randomPair(r *rng.Source) (*Set, *Set) {
	n := 1 + r.Intn(300)
	a, b := New(n), New(n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			a.Add(i)
		}
		if r.Intn(3) == 0 {
			b.Add(i)
		}
	}
	return a, b
}

func TestAndCountMatchesAnd(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 300; trial++ {
		a, b := randomPair(r)
		if got, want := And(a, b).Count(), len(bothBrute(a, b)); got != want {
			t.Fatalf("And().Count() = %d, per-bit count %d (n=%d)", got, want, a.Len())
		}
	}
}

func TestAndIntoMatchesAnd(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 300; trial++ {
		a, b := randomPair(r)
		want := bothBrute(a, b)
		if got := And(a, b).Indices(); !slices.Equal(got, want) {
			t.Fatalf("And = %v, per-bit %v (n=%d)", got, want, a.Len())
		}
		dst := a.Clone()
		dst.IntersectWith(b)
		if got := dst.Indices(); !slices.Equal(got, want) {
			t.Fatalf("Clone+IntersectWith = %v, per-bit %v (n=%d)", got, want, a.Len())
		}
	}
}

func TestAndPrimitivesMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"IntersectWith": func() { New(10).IntersectWith(New(11)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched universes did not panic", name)
				}
			}()
			fn()
		})
	}
}

// TestAndPrimitivesZeroAlloc: the in-place forms of And and AndNot
// allocate nothing.
func TestAndPrimitivesZeroAlloc(t *testing.T) {
	a := FromIndices(512, []int{1, 100, 511})
	b := FromIndices(512, []int{100, 200})
	dst := New(512)
	if avg := testing.AllocsPerRun(100, func() {
		dst.UnionWith(a) // dst ⊆ a here, so this resets dst to a
		dst.IntersectWith(b)
		dst.UnionWith(a)
		dst.DifferenceWith(b)
	}); avg != 0 {
		t.Fatalf("UnionWith/IntersectWith/DifferenceWith allocate %v per run, want 0", avg)
	}
}

func TestAndNotMatchesDifferenceWith(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 300; trial++ {
		a, b := randomPair(r)
		want := a.Clone()
		want.DifferenceWith(b)
		if got := AndNot(a, b); !got.Equal(want) {
			t.Fatalf("AndNot = %v, want %v (n=%d)", got, want, a.Len())
		}
	}
}

func TestDiffPrimitivesWordBoundaries(t *testing.T) {
	// Universes straddling word boundaries: exactly one word, one word
	// plus one bit, and two full words, with members on both sides of
	// the 64-bit seam.
	for _, n := range []int{64, 65, 128} {
		a := New(n)
		b := New(n)
		for _, v := range []int{0, 63, n - 1} {
			a.Add(v)
		}
		b.Add(0)
		got := AndNot(a, b)
		if got.Contains(0) || !got.Contains(63) || !got.Contains(n-1) {
			t.Fatalf("n=%d: AndNot = %v", n, got)
		}
	}
}

func TestDiffPrimitivesEmptySets(t *testing.T) {
	a := FromIndices(100, []int{1, 64, 99})
	empty := New(100)
	if got := AndNot(a, empty); !got.Equal(a) {
		t.Fatalf("AndNot(a, empty) = %v, want %v", got, a)
	}
	if got := AndNot(empty, a); !got.Empty() {
		t.Fatalf("AndNot(empty, a) = %v, want empty", got)
	}
	if got := AndNot(empty, empty); !got.Empty() {
		t.Fatalf("AndNot(empty, empty) = %v, want empty", got)
	}
}

func TestDiffPrimitivesMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AndNot":         func() { AndNot(New(10), New(11)) },
		"DifferenceWith": func() { New(10).DifferenceWith(New(11)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched universes did not panic", name)
				}
			}()
			fn()
		})
	}
}
