// Package mcast defines the multicast-scheme abstraction the experiments
// compare, plus helpers shared by the concrete planners in its
// subpackages:
//
//   - binomial: multi-phase software unicast multicast (paper §3.1, the
//     traditional baseline),
//   - kbinomial: the NI-based scheme — k-binomial tree with FPFS smart-NI
//     forwarding (paper §3.2.1),
//   - treeworm: the switch-based single-phase scheme — one bit-string
//     multidestination worm (paper §3.2.3),
//   - pathworm: the switch-based multi-phase scheme — MDP-LG multi-drop
//     path worms (paper §3.2.4).
//
// A Scheme turns (routing state, system parameters, source, destinations,
// message length) into a sim.Plan; the simulator does the rest. Schemes are
// stateless and safe for reuse across messages and topologies.
package mcast

import (
	"fmt"
	"slices"
	"sort"

	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Scheme builds executable multicast plans.
type Scheme interface {
	// Name is a short stable identifier ("ni-kbinomial", "sw-tree", ...).
	Name() string
	// Plan constructs the scheme's strategy for one multicast. msgFlits is
	// the payload length (schemes that adapt to packetization use it).
	Plan(rt *updown.Routing, p sim.Params, src topology.NodeID, dests []topology.NodeID, msgFlits int) (*sim.Plan, error)
}

// CheckArgs validates the (src, dests) pair against the routed topology;
// planners call it first so all schemes reject bad input identically.
func CheckArgs(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID) error {
	n := rt.Topo.NumNodes
	if int(src) < 0 || int(src) >= n {
		return fmt.Errorf("mcast: source %d out of range", src)
	}
	if len(dests) == 0 {
		return fmt.Errorf("mcast: empty destination set")
	}
	// A set of a few dozen is checked for duplicates pairwise in place. A
	// larger one is checked on a sorted copy first, so the quadratic scan
	// runs only to name the first duplicate of a set that has one.
	scan := len(dests) <= pairwiseDests || hasDuplicate(dests)
	for i, d := range dests {
		if int(d) < 0 || int(d) >= n {
			return fmt.Errorf("mcast: destination %d out of range", d)
		}
		if d == src {
			return fmt.Errorf("mcast: source %d in destination set", d)
		}
		if scan && slices.Contains(dests[:i], d) {
			return fmt.Errorf("mcast: duplicate destination %d", d)
		}
	}
	return nil
}

// pairwiseDests is the largest destination set CheckArgs scans pairwise.
const pairwiseDests = 64

// hasDuplicate reports whether dests holds some node twice.
func hasDuplicate(dests []topology.NodeID) bool {
	s := slices.Clone(dests)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return true
		}
	}
	return false
}

// ClusterBySwitch orders destinations so nodes sharing a switch are
// adjacent, with switch groups ordered by hop distance from the source's
// switch (nearest first) and by switch ID within equal distance. Both
// host-driven tree builders use this ordering so subtrees stay
// switch-local, the contention-minimizing construction of the authors'
// HPCA'97 k-binomial work.
func ClusterBySwitch(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID) []topology.NodeID {
	t := rt.Topo
	home := t.NodeSwitch[src]
	out := append([]topology.NodeID(nil), dests...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := t.NodeSwitch[out[i]], t.NodeSwitch[out[j]]
		if si != sj {
			di, dj := rt.DistUp(home, si), rt.DistUp(home, sj)
			if di != dj {
				return di < dj
			}
			return si < sj
		}
		return out[i] < out[j]
	})
	return out
}
