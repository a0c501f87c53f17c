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
	"cmp"
	"fmt"
	"slices"
	"sync"

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
	c := scratch.Get().(*coverSearch)
	defer c.put()
	c.reset(rt, dests)
	res := Result{Sends: make(map[topology.NodeID][]sim.WormSpec)}
	informed := append(c.informed[:0], src)
	for c.left > 0 {
		res.Phases++
		if res.Phases > len(c.switchList)+2 {
			return Result{}, fmt.Errorf("pathworm: cover failed to converge")
		}
		newly := c.newly[:0]
		// Contention reduction (the LG scheduling goal): worms dispatched
		// in the same phase must not share any network channel; a sender
		// whose best worm collides waits for a later phase.
		clear(c.usedLinks)
		sent := 0
		for _, sender := range informed {
			if c.left == 0 {
				break
			}
			c.bestWorm(rt.Topo.NodeSwitch[sender], s.Greedy)
			if sent > 0 && c.sharesLink() {
				continue
			}
			c.markLinks()
			sent++
			worm := c.spec()
			res.Sends[sender] = append(res.Sends[sender], worm)
			res.Worms++
			for _, seg := range worm.Path {
				if len(seg.Drops) > 0 {
					c.uncovered[seg.Switch] = false
					c.left--
					newly = append(newly, seg.Drops...)
				}
			}
		}
		c.newly = newly
		if !s.SerialSchedule {
			informed = append(informed, newly...)
		}
	}
	c.informed = informed
	return res, nil
}

// sharesLink reports whether any of the best worm's continuation channels
// is already claimed this phase.
func (c *coverSearch) sharesLink() bool {
	for _, step := range c.best {
		if step.port >= 0 && c.usedLinks[[2]int{int(step.sw), step.port}] {
			return true
		}
	}
	return false
}

// markLinks claims the best worm's continuation channels for this phase.
func (c *coverSearch) markLinks() {
	for _, step := range c.best {
		if step.port >= 0 {
			c.usedLinks[[2]int{int(step.sw), step.port}] = true
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

// scratch holds coverSearch values between Cover calls. One Scheme value
// serves every worker that plans, so the scratch cannot live in it.
var scratch = sync.Pool{New: func() any { return &coverSearch{usedLinks: make(map[[2]int]bool)} }}

// coverSearch is one Cover call's scratch, reused across calls: reset
// sizes it for the call's topology and clears what the call reads. Its
// dynamic program runs on arrays indexed by routing state, switch*2+phase;
// memo entries stamped with an older generation belong to an earlier
// terminal, so moving to the next terminal only bumps gen. Nothing a
// Result holds points into it.
type coverSearch struct {
	rt         *updown.Routing
	switchList []topology.SwitchID // destination switches, ascending
	uncovered  []bool              // by switch
	left       int                 // destination switches still uncovered

	// The destinations grouped by home switch: switch sw's group is
	// byDest[lo[sw]:hi[sw]], in the order Cover was given them. lo and
	// hi hold only the entries of switchList.
	byDest []topology.NodeID
	lo, hi []int32

	informed, newly []topology.NodeID // the schedule's senders
	usedLinks       map[[2]int]bool   // this phase's continuation channels

	// The current terminal's dynamic program.
	T      topology.SwitchID
	gen    uint32
	memo   []coverMemo
	ports  []int // NextHops output, one frame per recursion level
	phases []updown.Phase

	steps, best []pathStep // the last path searched; the best so far
}

// coverMemo is one routing state's result for the current terminal: the
// most uncovered switches a shortest path from the state to T visits, and
// the output port that path leaves by (-1 at T).
type coverMemo struct {
	gen   uint32
	cover int32
	port  int32
}

// reset readies c for one Cover call on rt: it groups dests by home
// switch and marks every destination switch uncovered.
func (c *coverSearch) reset(rt *updown.Routing, dests []topology.NodeID) {
	S := rt.Topo.NumSwitches
	c.rt = rt
	if len(c.uncovered) < S {
		c.uncovered = make([]bool, S)
		c.lo = make([]int32, S)
		c.hi = make([]int32, S)
		c.memo = make([]coverMemo, 2*S)
	} else {
		clear(c.uncovered[:S])
		clear(c.memo[:2*S])
	}
	c.gen = 0
	sw := rt.Topo.NodeSwitch
	c.byDest = append(c.byDest[:0], dests...)
	slices.SortStableFunc(c.byDest, func(a, b topology.NodeID) int { return cmp.Compare(sw[a], sw[b]) })
	c.switchList = c.switchList[:0]
	for i, d := range c.byDest {
		s := sw[d]
		if i == 0 || s != sw[c.byDest[i-1]] {
			c.switchList = append(c.switchList, s)
			c.lo[s] = int32(i)
			c.uncovered[s] = true
		}
		c.hi[s] = int32(i + 1)
	}
	c.left = len(c.switchList)
}

// put returns c to the pool without its routing, which it must not pin.
func (c *coverSearch) put() {
	c.rt = nil
	scratch.Put(c)
}

// bestWorm selects the sender's next worm and leaves its path in c.best.
// Less-greedy (default): target the nearest uncovered destination switch,
// breaking distance ties toward the path covering the most other
// uncovered switches. Greedy: maximize covered switches outright,
// breaking ties toward the shorter path. Terminals are tried in ascending
// switch order.
func (c *coverSearch) bestWorm(s0 topology.SwitchID, greedy bool) {
	bestCover, bestLen := -1, int(^uint(0)>>2)
	c.best = c.best[:0]
	for _, T := range c.switchList {
		if !c.uncovered[T] {
			continue
		}
		dist := c.rt.DistUp(s0, T)
		if !greedy && dist > bestLen-1 && len(c.best) > 0 {
			continue // a nearer terminal already chosen
		}
		cover := c.maxCoverPath(s0, T)
		length := len(c.steps)
		better := false
		if greedy {
			better = cover > bestCover || (cover == bestCover && length < bestLen)
		} else {
			better = length < bestLen || (length == bestLen && cover > bestCover)
		}
		if better {
			bestCover, bestLen = cover, length
			c.best = append(c.best[:0], c.steps...)
		}
	}
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
// additive). It returns the coverage count and leaves the step sequence,
// including both endpoints, in c.steps.
func (c *coverSearch) maxCoverPath(s0, T topology.SwitchID) int {
	c.T = T
	c.gen++
	total := c.visit(s0, updown.PhaseUp)
	// Reconstruct by replaying choices.
	c.steps = c.steps[:0]
	sw, ph := s0, updown.PhaseUp
	for {
		port := int(c.memo[int(sw)*2+int(ph)].port)
		c.steps = append(c.steps, pathStep{sw: sw, port: port})
		if port == -1 {
			break
		}
		if c.rt.Dirs[sw][port] == updown.DirDown {
			ph = updown.PhaseDown
		}
		sw = c.rt.Topo.Conn[sw][port].Switch
	}
	return int(total)
}

// visit returns the best coverage from state (sw, ph) to c.T, memoised
// for the current generation.
func (c *coverSearch) visit(sw topology.SwitchID, ph updown.Phase) int32 {
	m := &c.memo[int(sw)*2+int(ph)]
	if m.gen == c.gen {
		return m.cover
	}
	var cover int32
	if c.uncovered[sw] {
		cover = 1
	}
	if sw == c.T {
		*m = coverMemo{gen: c.gen, cover: cover, port: -1}
		return cover
	}
	// This level's next hops occupy ports[base:end]; deeper levels append
	// after them and truncate back before returning.
	base := len(c.ports)
	c.ports, c.phases = c.rt.NextHops(sw, ph, c.T, c.ports, c.phases)
	end := len(c.ports)
	best, bestPort := int32(-1), -1
	for i := base; i < end; i++ {
		// Ports arrive in ascending order, so the first maximum is the
		// lowest port.
		p := c.ports[i]
		if v := c.visit(c.rt.Topo.Conn[sw][p].Switch, c.phases[i]); v > best {
			best, bestPort = v, p
		}
	}
	c.ports, c.phases = c.ports[:base], c.phases[:base]
	if best < 0 {
		// T unreachable from the state — cannot happen for validated routing.
		panic(fmt.Sprintf("pathworm: no legal continuation from switch %d to %d", sw, c.T))
	}
	// memo is never reallocated, so m is still this state's entry.
	*m = coverMemo{gen: c.gen, cover: cover + best, port: int32(bestPort)}
	return cover + best
}

// spec turns the best path into the worm's stop chain: every switch on
// the path is an explicit stop; uncovered destination switches drop all
// their destinations.
func (c *coverSearch) spec() sim.WormSpec {
	segs := make([]sim.PathSeg, len(c.best))
	for i, step := range c.best {
		seg := sim.PathSeg{Switch: step.sw, NextPort: step.port}
		if c.uncovered[step.sw] {
			seg.Drops = slices.Clone(c.byDest[c.lo[step.sw]:c.hi[step.sw]])
		}
		segs[i] = seg
	}
	return sim.WormSpec{Kind: sim.WormPath, Path: segs}
}
