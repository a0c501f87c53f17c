// Package destset holds the interval coding of the destination set a
// multidestination worm carries, the header encoding that replaces the
// paper's flat N-bit string at datacenter scale.
//
// The paper's tree worm carries one bit per host (§3.2.3) — exact and
// cheap at N ≤ 256, but a 12.5 KB header at 100k hosts. P3FA's
// observation (Jin & Jia) is that real multicast destination sets have
// low egress diversity: members cluster under few subtrees, so a list of
// per-subtree index ranges encodes the same set in a handful of bytes.
// The interval coding is a canonical sorted list of maximal runs [lo, hi]
// of member indices, wire-encoded with varints (see AppendIvalEncoded);
// its header cost scales with the number of runs, not the universe.
//
// Hosts are numbered contiguously per edge switch by the scale
// generators (internal/topology), so "subtree" and "index range"
// coincide and rack-local groups collapse to single runs.
//
// Two forms carry the coding. Runs is the simulator's mutable run-list
// set: the in-memory form of every switch's up*/down* reachability
// strings and of every destination set the planner holds.
// IvalBytesOf, AppendIvalEncoded and DecodeIvalInto work on a
// *bitset.Set directly, so the wire codec and plan-level header totals
// size, encode and decode interval headers without building a Runs and
// without allocating. Both forms agree byte for byte on the same members.
package destset

import (
	"encoding/binary"
	"fmt"

	"mcastsim/internal/bitset"
)

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
// of s, without building a Runs. Allocation-free; the simulator uses it
// to size tree-worm headers under the interval coding.
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

// AppendIvalEncoded appends the interval wire encoding of s's members to
// dst and returns it:
//
//	uvarint(k)                      run count
//	run 0:   uvarint(lo) uvarint(hi-lo)
//	run j>0: uvarint(lo_j - hi_{j-1} - 2) uvarint(hi-lo)
//
// Canonical runs are separated by gaps of at least 2, so the gap field
// is biased by 2 and a value of 0 means the tightest legal spacing.
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
