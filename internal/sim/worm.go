package sim

import (
	"fmt"

	"mcastsim/internal/destset"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// worm is one packet's wire entity as it exists on a particular hop. Switch
// replication creates child worms that share the Message but carry their own
// remaining header state and stream length.
type worm struct {
	id   int64
	kind WormKind
	msg  *Message
	pkt  int // packet index within the message

	// len is the stream length in flits as it arrives at the current hop
	// (header-so-far + payload). Path worms shrink as segments strip.
	len int

	// phase is the up*/down* routing phase carried by the worm.
	phase updown.Phase

	dest    topology.NodeID // WormUnicast
	destSet *destset.Runs   // WormTree: remaining destinations
	path    []PathSeg       // WormPath: remaining segments

	// dead marks a worm torn down by the fault layer: in-flight flits are
	// drained and dropped on arrival, and the worm is never delivered.
	dead bool

	// refs counts the lifecycle legs still naming this worm (producing
	// branch, assembling occupant, assembling NI); the last release
	// recycles the worm and its destination set (see pool.go).
	refs int32
}

func (w *worm) String() string {
	switch w.kind {
	case WormUnicast:
		return fmt.Sprintf("worm%d[uni msg%d pkt%d ->%d len%d]", w.id, w.msg.ID, w.pkt, w.dest, w.len)
	case WormTree:
		return fmt.Sprintf("worm%d[tree msg%d pkt%d dests%v len%d]", w.id, w.msg.ID, w.pkt, w.destSet.Indices(), w.len)
	default:
		return fmt.Sprintf("worm%d[path msg%d pkt%d segs%d len%d]", w.id, w.msg.ID, w.pkt, len(w.path), w.len)
	}
}

// Header sizing (flits; flit = 1 byte). This file is the whole header
// model: every wire header's size, at any system size and under either
// destination coding, is computed here, and package wire's codec
// produces exactly these byte counts. Every worm starts with a 1-flit tag
// identifying its kind (paper Fig. 5(b) shows the tag field).

// IDBytes returns the id-field width for a system with the given
// endpoint count (nodes + switches, since path stops address either): 1
// byte up to 256 endpoints (the paper's sizes), 2 bytes up to 65,536,
// and 3 bytes past that (the 100k- and 1M-host tiers). The wire codec
// caps the space at 1<<24.
func IDBytes(endpoints int) int {
	switch {
	case endpoints <= 1<<8:
		return 1
	case endpoints <= 1<<16:
		return 2
	}
	return 3
}

// UnicastHeaderFlits returns the unicast header size in a system of the
// given shape: tag + id (2 flits at the paper's sizes).
func UnicastHeaderFlits(numNodes, numSwitches int) int {
	return 1 + IDBytes(numNodes+numSwitches)
}

// TreeHeaderFlits returns the header size of a flat-coded tree worm in an
// n-node system: tag + N-bit destination string (paper §3.2.3: header
// cost grows with system size).
func TreeHeaderFlits(numNodes int) int {
	return 1 + (numNodes+7)/8
}

// TreeIvalHeaderFlits returns the header size of an interval-coded tree
// worm carrying exactly the destinations in set: tag + run-list encoding
// (package destset). Unlike the flat header it depends on the set's run
// structure, not the universe.
func TreeIvalHeaderFlits(set *destset.Runs) int {
	return 1 + set.HeaderBytes()
}

// PathSegFlits returns the per-segment header size of a path worm in a
// system of the given shape: id field + port-mask field.
func PathSegFlits(portsPerSwitch, numNodes, numSwitches int) int {
	return IDBytes(numNodes+numSwitches) + (portsPerSwitch+7)/8
}

// PathHeaderFlits returns the header size of a path worm with the given
// number of segments: tag + per-segment fields. Unlike the tree header
// it grows with the system only through the id width (§3.3).
func PathHeaderFlits(segments, portsPerSwitch, numNodes, numSwitches int) int {
	return 1 + segments*PathSegFlits(portsPerSwitch, numNodes, numSwitches)
}

// PlanHeaderFlits totals the header flits of every worm plan emits for
// one packet under coding c, the quantity the paper's §3.2.3 scaling
// argument is about: one unicast header per NI-tree edge (the smart NIs
// forward unicast replicas), otherwise each host-send spec once.
func PlanHeaderFlits(t *topology.Topology, c DestCoding, plan *Plan) int {
	uni := UnicastHeaderFlits(t.NumNodes, t.NumSwitches)
	total := 0
	for _, kids := range plan.NITree {
		total += len(kids) * uni
	}
	for _, specs := range plan.HostSends {
		for i := range specs {
			switch spec := &specs[i]; spec.Kind {
			case WormTree:
				if c == HeaderIval {
					set := destset.NewRuns(t.NumNodes)
					for _, d := range spec.DestSet {
						set.Add(int(d))
					}
					total += TreeIvalHeaderFlits(set)
				} else {
					total += TreeHeaderFlits(t.NumNodes)
				}
			case WormPath:
				total += PathHeaderFlits(len(spec.Path), t.PortsPerSwitch, t.NumNodes, t.NumSwitches)
			default:
				total += uni
			}
		}
	}
	return total
}

// headerFlits computes the header length a freshly injected worm w
// carries in this network. Tree worms under the interval coding size by
// their actual destination set (already built on w); everything else
// sizes by system shape alone. At the paper's sizes and the flat coding
// every value equals the original constants, so historical tables and
// goldens are unchanged.
func (n *Network) headerFlits(w *worm) int {
	t := n.topo
	switch w.kind {
	case WormUnicast:
		return UnicastHeaderFlits(t.NumNodes, t.NumSwitches)
	case WormTree:
		if n.params.DestCoding == HeaderIval {
			return TreeIvalHeaderFlits(w.destSet)
		}
		return TreeHeaderFlits(t.NumNodes)
	case WormPath:
		return PathHeaderFlits(len(w.path), t.PortsPerSwitch, t.NumNodes, t.NumSwitches)
	default:
		panic("sim: unknown worm kind")
	}
}

// payloadFlits returns packet pkt's payload size for message m (the last
// packet may be partial).
func (n *Network) payloadFlits(m *Message, pkt int) int {
	rem := m.Flits - pkt*n.params.PacketFlits
	if rem > n.params.PacketFlits {
		return n.params.PacketFlits
	}
	return rem
}

// newWorm instantiates packet pkt of spec for message m, as injected at the
// source (full header present, phase fresh).
func (n *Network) newWorm(m *Message, spec *WormSpec, pkt int) *worm {
	w := n.getWorm()
	w.id = n.nextWormID
	w.kind = spec.Kind
	w.msg = m
	w.pkt = pkt
	w.phase = updown.PhaseUp
	n.nextWormID++
	switch spec.Kind {
	case WormUnicast:
		w.dest = spec.Dest
	case WormTree:
		w.destSet = n.getRuns()
		for _, d := range spec.DestSet {
			w.destSet.Add(int(d))
		}
	case WormPath:
		w.path = spec.Path
	}
	// Sized after the destination set is built: the interval coding's
	// tree header depends on the set's run structure.
	w.len = n.headerFlits(w) + n.payloadFlits(m, pkt)
	n.stats.WormsCreated++
	return w
}

// child clones w for a replication branch: the child carries the stream
// that leaves the branch (length len minus the flits absorbed at this
// switch) and its own header state.
func (w *worm) child(n *Network, skipped int) *worm {
	c := w.childSet(n, skipped, nil)
	if w.destSet != nil {
		c.destSet = n.getRuns()
		c.destSet.CopyFrom(w.destSet)
	}
	return c
}

// childSet clones w like child but installs ds — a pooled set whose
// ownership transfers to the child — as the destination set directly,
// skipping the copy-then-overwrite the tree planner would otherwise pay.
func (w *worm) childSet(n *Network, skipped int, ds *destset.Runs) *worm {
	c := n.getWorm()
	// Field by field: the child starts at zero refs (the pool delivers it
	// zeroed) and never shares w's reference count.
	c.kind = w.kind
	c.msg = w.msg
	c.pkt = w.pkt
	c.phase = w.phase
	c.dest = w.dest
	c.path = w.path
	c.dead = w.dead
	c.destSet = ds
	c.id = n.nextWormID
	n.nextWormID++
	c.len = w.len - skipped
	n.stats.WormsCreated++
	return c
}
