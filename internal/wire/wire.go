// Package wire implements the byte-level header encodings the paper
// describes. The simulator's header-length model (internal/sim/worm.go)
// sizes every header, the §3.3 arch comparison included; this codec is
// what that model is cross-checked against (its tests assert
// len(Encode*) == sim.*HeaderFlits; a flit is one byte).
//
// Formats (first byte is the worm tag, as in the paper's Figure 5(b)):
//
//	unicast:   [tag][id]
//	tree:      [tag][N-bit destination string, ceil(N/8) bytes]  (§3.2.3)
//	tree-ival: [tag][run-list encoding, see package destset]
//	path:      [tag] then per stop: [id][P-bit port mask, ceil(P/8) bytes]
//	           (§3.2.4; the mask's bits select drop ports plus at most one
//	           continuation port, and fields strip as stops are passed)
//
// The paper's path worms address a stop as "the ID of any arbitrary node
// connected to the switch". Our planner also emits pure-transit stops at
// switches that may have no attached node, so the id field carries an
// extended address space: values below numNodes are node IDs; numNodes+s
// addresses switch s directly (documented extension). The id field is one
// byte at the paper's system sizes and widens to two big-endian bytes
// past 256 endpoints and three past 65,536 (sim.IDBytes); the codec caps
// the space at 1<<24.
package wire

import (
	"fmt"

	"mcastsim/internal/bitset"
	"mcastsim/internal/destset"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
)

// Worm tag values.
const (
	TagUnicast  byte = 0x01
	TagTree     byte = 0x02
	TagPath     byte = 0x03
	TagTreeIval byte = 0x04
)

// Sizes captures the address-space parameters a codec needs.
type Sizes struct {
	Nodes          int
	Switches       int
	PortsPerSwitch int
}

// Validate rejects systems the widened id field cannot address.
func (z Sizes) Validate() error {
	switch {
	case z.Nodes <= 0 || z.Switches <= 0 || z.PortsPerSwitch <= 0:
		return fmt.Errorf("wire: non-positive sizes %+v", z)
	case z.Nodes+z.Switches > 1<<24:
		return fmt.Errorf("wire: %d nodes + %d switches exceed the 3-byte id space", z.Nodes, z.Switches)
	case z.PortsPerSwitch > topology.MaxPortsPerSwitch:
		return fmt.Errorf("wire: %d ports exceed the supported mask width", z.PortsPerSwitch)
	}
	return nil
}

func (z Sizes) maskBytes() int { return (z.PortsPerSwitch + 7) / 8 }

// idBytes is the id-field width, sim.IDBytes of the endpoint count, so
// the codec and the header model agree on every header length.
func (z Sizes) idBytes() int { return sim.IDBytes(z.Nodes + z.Switches) }

// appendID writes id in the field width, big-endian.
func (z Sizes) appendID(dst []byte, id int) []byte {
	for i := z.idBytes() - 1; i >= 0; i-- {
		dst = append(dst, byte(id>>(8*i)))
	}
	return dst
}

// readID parses a big-endian id field (field must be exactly idBytes
// long).
func readID(field []byte) int {
	id := 0
	for _, b := range field {
		id = id<<8 | int(b)
	}
	return id
}

// EncodeUnicast encodes a unicast worm header.
func EncodeUnicast(z Sizes, dest topology.NodeID) ([]byte, error) {
	if err := z.Validate(); err != nil {
		return nil, err
	}
	if int(dest) < 0 || int(dest) >= z.Nodes {
		return nil, fmt.Errorf("wire: destination %d out of range", dest)
	}
	return z.appendID([]byte{TagUnicast}, int(dest)), nil
}

// DecodeUnicast parses a unicast header.
func DecodeUnicast(z Sizes, b []byte) (topology.NodeID, error) {
	if err := z.Validate(); err != nil {
		return 0, err
	}
	want := sim.UnicastHeaderFlits(z.Nodes, z.Switches)
	if len(b) != want {
		return 0, fmt.Errorf("wire: unicast header is %d bytes, want %d", len(b), want)
	}
	if b[0] != TagUnicast {
		return 0, fmt.Errorf("wire: bad unicast tag %#x", b[0])
	}
	d := topology.NodeID(readID(b[1:]))
	if int(d) >= z.Nodes {
		return 0, fmt.Errorf("wire: decoded destination %d out of range", d)
	}
	return d, nil
}

// EncodeTree encodes the bit-string header of a tree worm. The set's
// universe must equal the node count.
func EncodeTree(z Sizes, dests *bitset.Set) ([]byte, error) {
	if err := z.Validate(); err != nil {
		return nil, err
	}
	if dests.Len() != z.Nodes {
		return nil, fmt.Errorf("wire: destination set universe %d, want %d nodes", dests.Len(), z.Nodes)
	}
	if dests.Empty() {
		return nil, fmt.Errorf("wire: empty destination set")
	}
	out := make([]byte, 1+(z.Nodes+7)/8)
	out[0] = TagTree
	dests.ForEach(func(i int) bool {
		out[1+i/8] |= 1 << (uint(i) % 8)
		return true
	})
	return out, nil
}

// DecodeTree parses a tree header back into a destination set.
func DecodeTree(z Sizes, b []byte) (*bitset.Set, error) {
	if err := z.Validate(); err != nil {
		return nil, err
	}
	want := sim.TreeHeaderFlits(z.Nodes)
	if len(b) != want {
		return nil, fmt.Errorf("wire: tree header is %d bytes, want %d", len(b), want)
	}
	if b[0] != TagTree {
		return nil, fmt.Errorf("wire: bad tree tag %#x", b[0])
	}
	set := bitset.New(z.Nodes)
	for i := 0; i < z.Nodes; i++ {
		if b[1+i/8]&(1<<(uint(i)%8)) != 0 {
			set.Add(i)
		}
	}
	// Reject stray bits beyond the node count (a corrupted header).
	for i := z.Nodes; i < (len(b)-1)*8; i++ {
		if b[1+i/8]&(1<<(uint(i)%8)) != 0 {
			return nil, fmt.Errorf("wire: tree header has destination bit %d beyond %d nodes", i, z.Nodes)
		}
	}
	if set.Empty() {
		return nil, fmt.Errorf("wire: decoded empty destination set")
	}
	return set, nil
}

// EncodeTreeIval encodes the interval-coded (run-list) header of a tree
// worm: the compressed alternative to the flat bit string whose size
// tracks the destination set's run structure instead of the node count
// (package destset documents the byte format). The set's universe must
// equal the node count.
func EncodeTreeIval(z Sizes, dests *destset.Runs) ([]byte, error) {
	if err := z.Validate(); err != nil {
		return nil, err
	}
	if dests.Universe() != z.Nodes {
		return nil, fmt.Errorf("wire: destination set universe %d, want %d nodes", dests.Universe(), z.Nodes)
	}
	if dests.Empty() {
		return nil, fmt.Errorf("wire: empty destination set")
	}
	out := make([]byte, 1, sim.TreeIvalHeaderFlits(dests))
	out[0] = TagTreeIval
	return dests.AppendEncoded(out), nil
}

// DecodeTreeIval parses an interval-coded tree header back into a
// destination set, rejecting truncated, non-canonical or out-of-universe
// encodings.
func DecodeTreeIval(z Sizes, b []byte) (*destset.Runs, error) {
	if err := z.Validate(); err != nil {
		return nil, err
	}
	if len(b) < 1 || b[0] != TagTreeIval {
		return nil, fmt.Errorf("wire: bad tree-ival header")
	}
	set := destset.NewRuns(z.Nodes)
	used, err := set.Decode(b[1:])
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if used != len(b)-1 {
		return nil, fmt.Errorf("wire: tree-ival header has %d trailing bytes", len(b)-1-used)
	}
	if set.Empty() {
		return nil, fmt.Errorf("wire: decoded empty destination set")
	}
	return set, nil
}

// EncodePath encodes a path worm's stop chain. Drops become mask bits via
// the topology's node-port mapping; the continuation port is the mask's
// single switch-port bit (the paper's "at most one other output port").
func EncodePath(topo *topology.Topology, segs []sim.PathSeg) ([]byte, error) {
	z := Sizes{Nodes: topo.NumNodes, Switches: topo.NumSwitches, PortsPerSwitch: topo.PortsPerSwitch}
	if err := z.Validate(); err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("wire: empty path")
	}
	out := make([]byte, 0, sim.PathHeaderFlits(len(segs), z.PortsPerSwitch, z.Nodes, z.Switches))
	out = append(out, TagPath)
	for i, seg := range segs {
		if int(seg.Switch) < 0 || int(seg.Switch) >= z.Switches {
			return nil, fmt.Errorf("wire: segment %d switch out of range", i)
		}
		// Address the stop by an attached node when one exists (the
		// paper's encoding); fall back to the switch-address extension.
		id := z.Nodes + int(seg.Switch)
		if nodes := topo.NodesAt(seg.Switch); len(nodes) > 0 {
			id = int(nodes[0])
		}
		mask := make([]byte, z.maskBytes())
		for _, d := range seg.Drops {
			if topo.NodeSwitch[d] != seg.Switch {
				return nil, fmt.Errorf("wire: segment %d drop %d not attached", i, d)
			}
			p := topo.NodePort[d]
			mask[p/8] |= 1 << (uint(p) % 8)
		}
		if seg.NextPort >= 0 {
			if seg.NextPort >= z.PortsPerSwitch {
				return nil, fmt.Errorf("wire: segment %d continuation port out of range", i)
			}
			if topo.Conn[seg.Switch][seg.NextPort].Kind != topology.ToSwitch {
				return nil, fmt.Errorf("wire: segment %d continuation is not a switch port", i)
			}
			mask[seg.NextPort/8] |= 1 << (uint(seg.NextPort) % 8)
		} else if i != len(segs)-1 {
			return nil, fmt.Errorf("wire: segment %d terminates early", i)
		}
		out = z.appendID(out, id)
		out = append(out, mask...)
	}
	return out, nil
}

// DecodePath parses a path header against a topology, reconstructing the
// stop chain. Mask bits pointing at node ports become drops; the (at most
// one) switch-port bit becomes the continuation.
func DecodePath(topo *topology.Topology, b []byte) ([]sim.PathSeg, error) {
	z := Sizes{Nodes: topo.NumNodes, Switches: topo.NumSwitches, PortsPerSwitch: topo.PortsPerSwitch}
	if err := z.Validate(); err != nil {
		return nil, err
	}
	if len(b) < 1 || b[0] != TagPath {
		return nil, fmt.Errorf("wire: bad path header")
	}
	idB := z.idBytes()
	segBytes := idB + z.maskBytes()
	if (len(b)-1)%segBytes != 0 || len(b) == 1 {
		return nil, fmt.Errorf("wire: path header length %d not 1+k*%d", len(b), segBytes)
	}
	count := (len(b) - 1) / segBytes
	segs := make([]sim.PathSeg, 0, count)
	for i := 0; i < count; i++ {
		field := b[1+i*segBytes : 1+(i+1)*segBytes]
		id := readID(field[:idB])
		var sw topology.SwitchID
		switch {
		case id < z.Nodes:
			sw = topo.NodeSwitch[id]
		case id < z.Nodes+z.Switches:
			sw = topology.SwitchID(id - z.Nodes)
		default:
			return nil, fmt.Errorf("wire: segment %d id %d out of the address space", i, id)
		}
		seg := sim.PathSeg{Switch: sw, NextPort: -1}
		for p := 0; p < z.PortsPerSwitch; p++ {
			if field[idB+p/8]&(1<<(uint(p)%8)) == 0 {
				continue
			}
			switch topo.Conn[sw][p].Kind {
			case topology.ToNode:
				seg.Drops = append(seg.Drops, topo.Conn[sw][p].Node)
			case topology.ToSwitch:
				if seg.NextPort != -1 {
					return nil, fmt.Errorf("wire: segment %d selects two continuation ports", i)
				}
				seg.NextPort = p
			default:
				return nil, fmt.Errorf("wire: segment %d selects an open port", i)
			}
		}
		if seg.NextPort != -1 && i == count-1 {
			return nil, fmt.Errorf("wire: final segment has a continuation")
		}
		if seg.NextPort == -1 && i != count-1 {
			return nil, fmt.Errorf("wire: segment %d lacks a continuation", i)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}
