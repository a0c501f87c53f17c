// Package pathworm implements the switch-based multi-phase multicast with
// multi-drop path-based multidestination worms, reconstructing the paper's
// MDP-LG algorithm (§3.2.4, after Kesavan & Panda, PCRCW'97).
//
// A path worm "uses almost exactly the same path followed by a unicast
// worm from a source to one of its destinations": it travels a legal
// (shortest) up*/down* route toward a primary destination switch and, at
// every switch along that route, drops copies to the destinations attached
// there, continuing through at most one further switch port. One path
// rarely passes every destination switch, so multiple worms are sent in
// multiple phases: destinations covered in earlier phases act as secondary
// sources for later worms — every phase paying full host software
// overhead, the cost the paper's comparison isolates.
//
// Reconstruction (the original heuristic's details are lost to the OCR;
// see DESIGN.md §6): planning is integrated with phase scheduling. In each
// phase, every node that already has the message sends one worm along a
// shortest legal path to an uncovered destination switch, dropping at
// every destination switch the path passes. The default, "less greedy"
// terminal choice targets the NEAREST uncovered destination switch (ties
// broken toward the path covering the most other uncovered switches):
// short worms hold few channels and block less of the network, at the
// price of more worms and phases — the trade the LG variant makes and the
// paper found best under contention. Greedy = true instead maximizes
// covered destination switches per worm (the MDP-G reconstruction, kept as
// an ablation). Paths are encoded stop-by-stop with explicit continuation
// ports, which keeps the worm's up*-then-down* legality independent of
// adaptive routing choices.
package pathworm

import (
	"fmt"
	"sort"

	"mcastsim/internal/mcast"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Scheme is the MDP-LG path-based multicast.
type Scheme struct {
	// SerialSchedule is an ablation: the source sends every worm itself
	// instead of recruiting covered destinations as secondary sources.
	// It isolates the value of MDP-LG's multi-phase dispatch.
	SerialSchedule bool
	// Greedy is an ablation: maximize covered destination switches per
	// worm (MDP-G) instead of the default shortest-worm-first (MDP-LG).
	Greedy bool
}

// New returns the scheme with the paper's multi-phase dispatch.
func New() Scheme { return Scheme{} }

// Name implements mcast.Scheme.
func (Scheme) Name() string { return "sw-path" }

// Result reports what a cover computation produced, for diagnostics and
// the architectural comparison.
type Result struct {
	Sends  map[topology.NodeID][]sim.WormSpec
	Worms  int
	Phases int
}

// Plan implements mcast.Scheme.
func (s Scheme) Plan(rt *updown.Routing, _ sim.Params, src topology.NodeID, dests []topology.NodeID, _ int) (*sim.Plan, error) {
	if err := mcast.CheckArgs(rt, src, dests); err != nil {
		return nil, err
	}
	res, err := s.Cover(rt, src, dests)
	if err != nil {
		return nil, err
	}
	return &sim.Plan{
		Source:    src,
		Dests:     dests,
		HostSends: res.Sends,
	}, nil
}

// Cover runs the integrated worm construction and phase schedule.
func (s Scheme) Cover(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID) (Result, error) {
	groups, switchList := mcast.DestSwitches(rt, dests)
	uncovered := make(map[topology.SwitchID]bool, len(switchList))
	for _, sw := range switchList {
		uncovered[sw] = true
	}
	res := Result{Sends: make(map[topology.NodeID][]sim.WormSpec)}
	informed := []topology.NodeID{src}
	for len(uncovered) > 0 {
		res.Phases++
		if res.Phases > len(switchList)+2 {
			return Result{}, fmt.Errorf("pathworm: cover failed to converge")
		}
		var newly []topology.NodeID
		// Contention reduction (the LG scheduling goal): worms dispatched
		// in the same phase must not share any network channel; a sender
		// whose best worm collides waits for a later phase.
		usedLinks := map[[2]int]bool{}
		sent := 0
		for _, sender := range informed {
			if len(uncovered) == 0 {
				break
			}
			worm := bestWorm(rt, rt.Topo.NodeSwitch[sender], uncovered, groups, s.Greedy)
			if sent > 0 && sharesLink(worm, usedLinks) {
				continue
			}
			markLinks(worm, usedLinks)
			sent++
			res.Sends[sender] = append(res.Sends[sender], worm)
			res.Worms++
			for _, seg := range worm.Path {
				if len(seg.Drops) > 0 {
					delete(uncovered, seg.Switch)
					newly = append(newly, seg.Drops...)
				}
			}
		}
		if !s.SerialSchedule {
			informed = append(informed, newly...)
		}
	}
	return res, nil
}

// sharesLink reports whether any of the worm's continuation channels is
// already claimed this phase.
func sharesLink(w sim.WormSpec, used map[[2]int]bool) bool {
	for _, seg := range w.Path {
		if seg.NextPort >= 0 && used[[2]int{int(seg.Switch), seg.NextPort}] {
			return true
		}
	}
	return false
}

func markLinks(w sim.WormSpec, used map[[2]int]bool) {
	for _, seg := range w.Path {
		if seg.NextPort >= 0 {
			used[[2]int{int(seg.Switch), seg.NextPort}] = true
		}
	}
}

// Worms returns how many worms the scheme dispatches for the multicast —
// the quantity the paper's Figure 7 discussion tracks as switches grow.
func (s Scheme) Worms(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID) int {
	res, err := s.Cover(rt, src, dests)
	if err != nil {
		return -1
	}
	return res.Worms
}

// state indexes the (switch, phase) legal-routing DAG.
type state struct {
	sw topology.SwitchID
	ph updown.Phase
}

// bestWorm selects the sender's next worm. Less-greedy (default): target
// the nearest uncovered destination switch, breaking distance ties toward
// the path covering the most other uncovered switches. Greedy: maximize
// covered switches outright, breaking ties toward the shorter path.
func bestWorm(rt *updown.Routing, s0 topology.SwitchID, uncovered map[topology.SwitchID]bool,
	groups map[topology.SwitchID][]topology.NodeID, greedy bool) sim.WormSpec {
	terminals := make([]topology.SwitchID, 0, len(uncovered))
	for sw := range uncovered {
		terminals = append(terminals, sw)
	}
	sort.Slice(terminals, func(i, j int) bool { return terminals[i] < terminals[j] })

	bestCover, bestLen := -1, int(^uint(0)>>2)
	var bestPath []pathStep
	for _, T := range terminals {
		dist := rt.DistUp(s0, T)
		if !greedy && dist > bestLen-1 && bestPath != nil {
			continue // a nearer terminal already chosen
		}
		cover, path := maxCoverPath(rt, s0, T, uncovered)
		length := len(path)
		better := false
		if greedy {
			better = cover > bestCover || (cover == bestCover && length < bestLen)
		} else {
			better = length < bestLen || (length == bestLen && cover > bestCover)
		}
		if better {
			bestCover, bestLen, bestPath = cover, length, path
		}
	}
	return makeSpec(bestPath, uncovered, groups)
}

// pathStep is one switch of a reconstructed path plus the output port
// toward the next switch (-1 at the terminal).
type pathStep struct {
	sw   topology.SwitchID
	port int
}

// maxCoverPath computes, over all shortest legal paths s0 -> T, the one
// visiting the most uncovered destination switches (DP over the shortest-
// path DAG; shortest paths cannot revisit a switch, so coverage is
// additive). It returns the coverage count and the step sequence,
// including both endpoints.
func maxCoverPath(rt *updown.Routing, s0, T topology.SwitchID, uncovered map[topology.SwitchID]bool) (int, []pathStep) {
	memo := map[state]int{}
	choice := map[state]pathStep{}
	var f func(st state) int
	f = func(st state) int {
		if v, ok := memo[st]; ok {
			return v
		}
		cover := 0
		if uncovered[st.sw] {
			cover = 1
		}
		if st.sw == T {
			memo[st] = cover
			choice[st] = pathStep{sw: st.sw, port: -1}
			return cover
		}
		ports, phases := rt.NextHops(st.sw, st.ph, T, nil, nil)
		best := -1
		var bestStep pathStep
		for i, p := range ports {
			next := state{rt.Topo.Conn[st.sw][p].Switch, phases[i]}
			if v := f(next); v > best || (v == best && p < bestStep.port) {
				best = v
				bestStep = pathStep{sw: st.sw, port: p}
			}
		}
		if best < 0 {
			// T unreachable from st — cannot happen for validated routing.
			panic(fmt.Sprintf("pathworm: no legal continuation from switch %d to %d", st.sw, T))
		}
		memo[st] = cover + best
		choice[st] = bestStep
		return cover + best
	}
	start := state{s0, updown.PhaseUp}
	total := f(start)
	// Reconstruct by replaying choices.
	var steps []pathStep
	cur := start
	for {
		step := choice[cur]
		steps = append(steps, step)
		if step.port == -1 {
			break
		}
		nextSw := rt.Topo.Conn[cur.sw][step.port].Switch
		nextPh := cur.ph
		if rt.Dirs[cur.sw][step.port] == updown.DirDown {
			nextPh = updown.PhaseDown
		}
		cur = state{nextSw, nextPh}
	}
	return total, steps
}

// makeSpec turns a path into the worm's stop chain: every switch on the
// path is an explicit stop; uncovered destination switches drop all their
// destinations.
func makeSpec(path []pathStep, uncovered map[topology.SwitchID]bool,
	groups map[topology.SwitchID][]topology.NodeID) sim.WormSpec {
	segs := make([]sim.PathSeg, len(path))
	for i, step := range path {
		seg := sim.PathSeg{Switch: step.sw, NextPort: step.port}
		if uncovered[step.sw] {
			seg.Drops = append([]topology.NodeID(nil), groups[step.sw]...)
		}
		segs[i] = seg
	}
	return sim.WormSpec{Kind: sim.WormPath, Path: segs}
}
