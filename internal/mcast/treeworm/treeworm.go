// Package treeworm implements the switch-based single-phase multicast: one
// multidestination worm with a bit-string encoded header (paper §3.2.3,
// after Sivaram/Panda/Stunkel, PCRCW'97 and ISCA'97).
//
// All topology knowledge lives in the switches (reachability strings, see
// package updown); the source merely sets the destination bits, so the
// plan is a single host send of a single worm. Multicast completes in one
// communication phase — the property the paper's evaluation finds decisive.
package treeworm

import (
	"mcastsim/internal/mcast"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Scheme is the single bit-string multidestination worm multicast.
type Scheme struct{}

// New returns the scheme.
func New() Scheme { return Scheme{} }

// Name implements mcast.Scheme.
func (Scheme) Name() string { return "sw-tree" }

// Plan implements mcast.Scheme.
func (Scheme) Plan(rt *updown.Routing, _ sim.Params, src topology.NodeID, dests []topology.NodeID, _ int) (*sim.Plan, error) {
	if err := mcast.CheckArgs(rt, src, dests); err != nil {
		return nil, err
	}
	return &sim.Plan{
		Source: src,
		Dests:  dests,
		HostSends: map[topology.NodeID][]sim.WormSpec{
			src: {{Kind: sim.WormTree, DestSet: append([]topology.NodeID(nil), dests...)}},
		},
	}, nil
}
