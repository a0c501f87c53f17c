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
// of member indices, wire-encoded with varints (see Runs.AppendEncoded);
// its header cost scales with the number of runs, not the universe.
//
// Hosts are numbered contiguously per edge switch by the scale
// generators (internal/topology), so "subtree" and "index range"
// coincide and rack-local groups collapse to single runs.
//
// Runs carries the coding. It is the in-memory form of every switch's
// up*/down* reachability strings, of every destination set the planner
// holds and of every dynamic group's membership, and it is the format's
// only coder: HeaderBytes sizes an interval-coded tree header for the
// simulator's header model, and the wire codec encodes with
// AppendEncoded and decodes with Decode.
package destset

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
