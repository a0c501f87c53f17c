package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
)

// expectedDigests are the output digests of each workload at the default
// seed and at secondSeed, the seed a performance claim must also hold on.
// A fixed workload (fig9) has one digest, listed under defaultSeed. Engine
// event counts are left out of every digest on purpose, so an engine
// change that drops bookkeeping events is not a failure; a change of
// simulated outputs (latencies, delivery, flit and packet counts, rendered
// tables) is.
var expectedDigests = map[uint64]map[string]string{
	defaultSeed: {
		"fig9":        "2e14e50b3951331c",
		"tree-storm":  "33633933333eb664",
		"rack-sparse": "d56dedb896ef16ea",
		"churn-fault": "541862fca828b8dc",
	},
	secondSeed: {
		"tree-storm":  "87f66c3b8ea2edb6",
		"rack-sparse": "1ab638aeee954818",
		"churn-fault": "a8b2d959e4d21aab",
	},
}

// digest is FNV-1a over an op's simulated outputs.
type digest struct{ hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) add(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.Write(b[:])
	}
}

func hexDigest(v uint64) string { return fmt.Sprintf("%016x", v) }
