// Package bitset implements fixed-capacity bit strings.
//
// Bit strings are the paper's central encoding device: a tree-based
// multidestination worm carries an N-bit destination string in its header
// (bit i set means node i is a destination), and every switch holds one
// "reachability string" per down output port describing the nodes legally
// reachable through it. Routing a tree worm is the AND of header and
// reachability strings (paper §3.2.3). The simulator holds every set
// run-coded (destset.Runs); this package is the flat N-bit header the
// wire codec encodes and decodes, and the reference the run-coded sets
// are tested against.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bit string over the universe [0, Len()). The zero value is an
// empty set of length 0; use New for a sized set.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty Set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a Set of length n with the given bits set.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// Len returns the universe size (capacity in bits).
func (s *Set) Len() int { return s.n }

// check panics when i is outside the universe; all mutators call it so
// out-of-range bits can never silently appear in a header.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bits are set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// sameLen panics unless the two sets share a universe; mixing headers from
// different-sized networks is always a bug.
func (s *Set) sameLen(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, o.n))
	}
}

// UnionWith sets s = s | o in place.
func (s *Set) UnionWith(o *Set) {
	s.sameLen(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith sets s = s & o in place.
func (s *Set) IntersectWith(o *Set) {
	s.sameLen(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// DifferenceWith sets s = s &^ o in place.
func (s *Set) DifferenceWith(o *Set) {
	s.sameLen(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// And returns a new set s & o.
func And(s, o *Set) *Set {
	c := s.Clone()
	c.IntersectWith(o)
	return c
}

// AndNot returns a new set s &^ o (the elements of s not in o).
func AndNot(s, o *Set) *Set {
	c := s.Clone()
	c.DifferenceWith(o)
	return c
}

// Equal reports whether s and o contain exactly the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the set bits in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every set bit in ascending order; fn returning false
// stops the iteration early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// String renders the set as the paper draws headers: a bit string with bit 0
// leftmost, e.g. "01001000" (length capped with an ellipsis for big sets).
func (s *Set) String() string {
	const maxRender = 128
	var b strings.Builder
	n := s.n
	trunc := false
	if n > maxRender {
		n, trunc = maxRender, true
	}
	for i := 0; i < n; i++ {
		if s.Contains(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if trunc {
		b.WriteString("…")
	}
	return b.String()
}
