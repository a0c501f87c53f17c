// Package updown implements the Autonet-style up*/down* routing substrate
// the paper assumes (§2.2).
//
// A breadth-first spanning tree is computed over the switch graph from a
// deterministic root (the lowest-ID switch; the paper's distributed
// agreement protocol is irrelevant to the comparison, only the resulting
// unique tree matters). Every inter-switch link is then oriented: the "up"
// end is the end closer to the root, with ties broken toward the lower
// switch ID. Because (level, id) strictly decreases along every up
// traversal, the directed links form no loops.
//
// A legal route traverses zero or more up links followed by zero or more
// down links — never up after down. The package exposes:
//
//   - per-port directions and adaptive shortest legal-path next-hop tables
//     for unicast routing (used by all schemes and by path worms between
//     drop switches),
//   - per-down-port reachability strings (the switch state that routes
//     tree-based multidestination worms, paper §3.2.3), held as interval
//     run lists,
//   - down-only distance tables (the continuation constraint for multi-drop
//     path worms, paper §3.2.4).
package updown

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"mcastsim/internal/destset"
	"mcastsim/internal/topology"
)

// ErrPartitioned reports that the dead links disconnect the switch graph,
// so no routing state covering every switch exists. Reconfiguration keeps
// the old tables when it sees this.
var ErrPartitioned = errors.New("updown: switch graph is partitioned")

// Dir classifies a switch port under the up/down orientation.
type Dir uint8

const (
	// DirNone marks open ports and ports to nodes (orientation applies
	// only to inter-switch links).
	DirNone Dir = iota
	// DirUp means leaving through this port moves toward the root.
	DirUp
	// DirDown means leaving through this port moves away from the root.
	DirDown
)

func (d Dir) String() string {
	switch d {
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	default:
		return "none"
	}
}

// Phase is the routing phase a packet carries: a fresh packet may still
// climb; once it has taken a down link it may only descend.
type Phase uint8

const (
	// PhaseUp: the packet has taken no down link yet; both directions are
	// legal.
	PhaseUp Phase = iota
	// PhaseDown: the packet has taken a down link; only down links remain
	// legal.
	PhaseDown
)

const unreachable = int(^uint(0) >> 2) // effectively infinity for hop counts

// unreachable32 is the row-local sentinel; DistUp/DistDown translate it
// back to the package-wide unreachable value.
const unreachable32 = int32(^uint32(0) >> 2)

// Routing is the immutable routing state derived from a topology.
type Routing struct {
	Topo *topology.Topology
	// Root is the BFS root switch (lowest ID, i.e. 0).
	Root topology.SwitchID
	// Level[s] is the BFS tree depth of switch s.
	Level []int
	// Parent[s] is s's BFS tree parent (-1 for the root).
	Parent []topology.SwitchID
	// Dirs[s][p] orients each port of each switch.
	Dirs [][]Dir

	// dist[d] holds destination d's distance row (see distRow). Rows are
	// computed lazily per destination on first use — a 10k-switch
	// network's full table would be ~1.7 GB and O(S·(S+L)) to build, but a
	// simulation probe only routes toward a handful of destination
	// switches. The BFS is deterministic, so concurrent users publishing
	// the same row via CompareAndSwap always agree; Routing stays safe for
	// shared read-only use across worker goroutines.
	dist []atomic.Pointer[distRow]

	// Per-switch link views, derived once from Dirs and shared read-only
	// by every network that routes with this state, each in ascending
	// (switch, port) order:
	//   - up[s]: s's up ports and the switches they climb to;
	//   - down[s]: s's down ports and their reachability strings;
	//   - upInto[q] / downInto[q]: the switches with an up / down link to
	//     q, one entry per link — the reverse adjacency a row BFS and the
	//     simulator's climb search walk.
	up       [][]UpLink
	down     [][]DownLink
	upInto   [][]topology.SwitchID
	downInto [][]topology.SwitchID

	// Cover[s] is the set of nodes deliverable from switch s without any
	// further up movement: nodes attached to s plus the union of its down
	// ports' reachability strings (see DownReach). The sets are
	// run-coded: where hosts are numbered per switch (the datacenter
	// generators), a subtree's hosts form a few index runs, so a set
	// costs O(runs) rather than N bits.
	Cover []*destset.Runs

	// deadPort[s][p] marks ports whose link has failed. A dead port keeps
	// Dirs == DirNone, so every consumer of the orientation (NextHops,
	// the link views, DownReach, tree climbs) avoids it without
	// special-casing faults.
	deadPort [][]bool

	// Opts records the options this state was built with, so a
	// reconfiguration can recompute routing under the same policy with an
	// updated fault mask.
	Opts Options
}

// TreePolicy selects the spanning-tree construction behind the up/down
// orientation.
type TreePolicy uint8

const (
	// TreeBFS is Autonet's breadth-first tree (the paper's §2.2 model).
	TreeBFS TreePolicy = iota
	// TreeDFS builds a depth-first tree instead — the classic up*/down*
	// variant from the literature. Its levels are DFS depths; the same
	// orientation rule stays loop-free for any level assignment, but the
	// deeper, skinnier tree shifts which links are "up", typically moving
	// traffic off the BFS root at the cost of longer legal paths.
	TreeDFS
)

// Options configures routing construction.
type Options struct {
	// Root forces the spanning-tree root when >= 0. The default (-1 via
	// New) is switch 0 — the deterministic lowest-ID stand-in for
	// Autonet's UID-based agreement.
	Root topology.SwitchID
	// CenterRoot, when Root < 0, picks a graph center (minimum
	// eccentricity, ties to the lower ID) instead of switch 0: a known
	// up*/down* optimization that shortens tree depth and hence worm
	// climbs. Exposed for the "root" experiment.
	CenterRoot bool
	// Tree selects BFS (default, the paper's model) or DFS construction.
	Tree TreePolicy
	// DeadLinks lists indices into Topo.Links of failed links. Routing is
	// computed over the surviving links: dead ports stay DirNone. If they
	// leave the switch graph disconnected, construction fails with an
	// error wrapping ErrPartitioned.
	DeadLinks []int
}

// New computes the full routing state for t with the default root.
func New(t *topology.Topology) (*Routing, error) {
	return NewWithOptions(t, Options{Root: -1})
}

// NewWithOptions computes the routing state with explicit root policy.
func NewWithOptions(t *topology.Topology, opt Options) (*Routing, error) {
	r := &Routing{Topo: t, Opts: opt}
	if err := r.buildMasks(opt); err != nil {
		return nil, err
	}
	root := opt.Root
	if int(root) >= t.NumSwitches {
		return nil, fmt.Errorf("updown: root %d out of range", root)
	}
	if root < 0 {
		// Default: switch 0; with CenterRoot, a graph center (minimum
		// eccentricity, ties to the lower ID).
		root = 0
		if opt.CenterRoot {
			root = r.center()
		}
	}
	r.Root = root
	if opt.Tree == TreeDFS {
		r.computeDFSTree()
	} else {
		r.computeTree()
	}
	// A switch the tree never reached means the dead links disconnect the
	// graph: no single up*/down* state can serve it.
	for s := 0; s < t.NumSwitches; s++ {
		if r.Level[s] == -1 {
			return nil, fmt.Errorf("updown: switch %d unreachable from root %d: %w", s, root, ErrPartitioned)
		}
	}
	r.orientPorts()
	r.buildLinkViews()
	r.dist = make([]atomic.Pointer[distRow], t.NumSwitches)
	r.computeReachability()
	if err := r.verify(); err != nil {
		return nil, err
	}
	return r, nil
}

// buildMasks derives deadPort from the options: both ends of every listed
// link are dead.
func (r *Routing) buildMasks(opt Options) error {
	t := r.Topo
	r.deadPort = make([][]bool, t.NumSwitches)
	for s := range r.deadPort {
		r.deadPort[s] = make([]bool, t.PortsPerSwitch)
	}
	for _, li := range opt.DeadLinks {
		if li < 0 || li >= len(t.Links) {
			return fmt.Errorf("updown: dead link %d out of range", li)
		}
		l := t.Links[li]
		r.deadPort[l.A][l.APort] = true
		r.deadPort[l.B][l.BPort] = true
	}
	return nil
}

// center returns a switch of minimum eccentricity over the surviving
// links (lowest ID among ties). Must be called after buildMasks; if the
// dead links disconnect the graph, the tree check catches it later.
func (r *Routing) center() topology.SwitchID {
	t := r.Topo
	best, bestEcc := -1, unreachable
	for src := 0; src < t.NumSwitches; src++ {
		dist := make([]int, t.NumSwitches)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []topology.SwitchID{topology.SwitchID(src)}
		ecc := 0
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for p, e := range t.Conn[s] {
				if e.Kind != topology.ToSwitch || r.deadPort[s][p] || dist[e.Switch] != -1 {
					continue
				}
				dist[e.Switch] = dist[s] + 1
				if dist[e.Switch] > ecc {
					ecc = dist[e.Switch]
				}
				queue = append(queue, e.Switch)
			}
		}
		if ecc < bestEcc {
			best, bestEcc = src, ecc
		}
	}
	return topology.SwitchID(best)
}

// computeTree builds BFS levels and parents from the root. Neighbor order
// is by (switch ID, port) so the tree is unique and platform-independent —
// the property the Autonet agreement protocol provides.
func (r *Routing) computeTree() {
	t := r.Topo
	r.Level = make([]int, t.NumSwitches)
	r.Parent = make([]topology.SwitchID, t.NumSwitches)
	for i := range r.Level {
		r.Level[i] = -1
		r.Parent[i] = -1
	}
	r.Level[r.Root] = 0
	queue := []topology.SwitchID{r.Root}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		// Deterministic neighbor visitation: ascending port order.
		for p := 0; p < t.PortsPerSwitch; p++ {
			e := t.Conn[s][p]
			if e.Kind != topology.ToSwitch || r.deadPort[s][p] {
				continue
			}
			if r.Level[e.Switch] == -1 {
				r.Level[e.Switch] = r.Level[s] + 1
				r.Parent[e.Switch] = s
				queue = append(queue, e.Switch)
			}
		}
	}
}

// computeDFSTree builds a depth-first spanning tree; Level[s] is the DFS
// depth. Deterministic: neighbors visited in ascending port order,
// iteratively to keep deep graphs off the Go stack.
func (r *Routing) computeDFSTree() {
	t := r.Topo
	r.Level = make([]int, t.NumSwitches)
	r.Parent = make([]topology.SwitchID, t.NumSwitches)
	for i := range r.Level {
		r.Level[i] = -1
		r.Parent[i] = -1
	}
	type frame struct {
		sw   topology.SwitchID
		port int
	}
	r.Level[r.Root] = 0
	stack := []frame{{sw: r.Root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		advanced := false
		for ; f.port < t.PortsPerSwitch; f.port++ {
			e := t.Conn[f.sw][f.port]
			if e.Kind != topology.ToSwitch || r.deadPort[f.sw][f.port] || r.Level[e.Switch] != -1 {
				continue
			}
			r.Level[e.Switch] = r.Level[f.sw] + 1
			r.Parent[e.Switch] = f.sw
			f.port++
			stack = append(stack, frame{sw: e.Switch})
			advanced = true
			break
		}
		if !advanced {
			stack = stack[:len(stack)-1]
		}
	}
}

// orientPorts assigns Up/Down to every inter-switch port end.
func (r *Routing) orientPorts() {
	t := r.Topo
	r.Dirs = make([][]Dir, t.NumSwitches)
	for s := 0; s < t.NumSwitches; s++ {
		r.Dirs[s] = make([]Dir, t.PortsPerSwitch)
		for p := 0; p < t.PortsPerSwitch; p++ {
			e := t.Conn[s][p]
			if e.Kind != topology.ToSwitch || r.deadPort[s][p] {
				continue
			}
			q := int(e.Switch)
			// Leaving s through p is "up" iff the peer q is the up end.
			if r.Level[q] < r.Level[s] || (r.Level[q] == r.Level[s] && q < s) {
				r.Dirs[s][p] = DirUp
			} else {
				r.Dirs[s][p] = DirDown
			}
		}
	}
}

// UpLink is an up port of a switch and the switch it climbs to.
type UpLink struct {
	Port int
	Peer topology.SwitchID
}

// DownLink is a down port of a switch and its reachability string (see
// DownReach).
type DownLink struct {
	Port  int
	Reach *destset.Runs
}

// buildLinkViews derives up, down (ports only; computeReachability fills
// the strings), upInto and downInto from Dirs. Each view is cut from one
// backing array.
func (r *Routing) buildLinkViews() {
	t := r.Topo
	S := t.NumSwitches
	nUp, nDown := make([]int, S), make([]int, S)
	inUp, inDown := make([]int, S), make([]int, S)
	for s := 0; s < S; s++ {
		for p, d := range r.Dirs[s] {
			switch q := t.Conn[s][p].Switch; d {
			case DirUp:
				nUp[s]++
				inUp[q]++
			case DirDown:
				nDown[s]++
				inDown[q]++
			}
		}
	}
	r.up, r.down = carve[UpLink](nUp), carve[DownLink](nDown)
	r.upInto, r.downInto = carve[topology.SwitchID](inUp), carve[topology.SwitchID](inDown)
	for s := 0; s < S; s++ {
		for p, d := range r.Dirs[s] {
			switch q := t.Conn[s][p].Switch; d {
			case DirUp:
				r.up[s] = append(r.up[s], UpLink{Port: p, Peer: q})
				r.upInto[q] = append(r.upInto[q], topology.SwitchID(s))
			case DirDown:
				r.down[s] = append(r.down[s], DownLink{Port: p})
				r.downInto[q] = append(r.downInto[q], topology.SwitchID(s))
			}
		}
	}
}

// carve returns one empty slice per count, with exactly that capacity,
// all cut from one backing array.
func carve[T any](counts []int) [][]T {
	total := 0
	for _, c := range counts {
		total += c
	}
	buf := make([]T, total)
	out := make([][]T, len(counts))
	pos := 0
	for i, c := range counts {
		out[i] = buf[pos : pos : pos+c]
		pos += c
	}
	return out
}

// distRow is one destination switch's distances over the (switch, phase)
// states, indexed s*2+phase: the shortest legal route length in switch
// hops from s to the destination, starting in that phase (a fresh route
// starts in PhaseUp; PhaseDown allows down links only), or unreachable32
// if no such route exists.
type distRow []int32

func (row distRow) at(s topology.SwitchID, ph Phase) int32 { return row[int(s)*2+int(ph)] }

// row returns destination d's distance row, computing and publishing it
// on first use. Safe for concurrent callers: the BFS is deterministic,
// so every racer computes an identical row and CompareAndSwap keeps
// exactly one.
func (r *Routing) row(d topology.SwitchID) distRow {
	if p := r.dist[d].Load(); p != nil {
		return *p
	}
	S := r.Topo.NumSwitches
	row := make(distRow, 2*S)
	r.reverseBFS(int(d), row, make([]int32, 0, 2*S))
	if r.dist[d].CompareAndSwap(nil, &row) {
		return row
	}
	return *r.dist[d].Load()
}

// reverseBFS fills dist, indexed like distRow, with every state's
// distance to switch d, running the BFS backwards from d over the
// reverse link views. queue is the frontier's storage; both slices hold
// room for the 2S states, and the queue is returned for reuse.
func (r *Routing) reverseBFS(d int, dist []int32, queue []int32) []int32 {
	for i := range dist {
		dist[i] = unreachable32
	}
	// Arriving at switch d in either phase terminates the route.
	dist[d*2+int(PhaseUp)] = 0
	dist[d*2+int(PhaseDown)] = 0
	queue = append(queue[:0], int32(d*2+int(PhaseUp)), int32(d*2+int(PhaseDown)))
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		q, next := cur/2, dist[cur]+1
		if Phase(cur%2) == PhaseUp {
			// (s, up) --up link--> (q, up)
			for _, s := range r.upInto[q] {
				if st := int32(s)*2 + int32(PhaseUp); dist[st] == unreachable32 {
					dist[st] = next
					queue = append(queue, st)
				}
			}
			continue
		}
		// (s, up) --down link--> (q, down) and (s, down) --down link--> (q, down)
		for _, s := range r.downInto[q] {
			for _, st := range [2]int32{int32(s)*2 + int32(PhaseUp), int32(s)*2 + int32(PhaseDown)} {
				if dist[st] == unreachable32 {
					dist[st] = next
					queue = append(queue, st)
				}
			}
		}
	}
	return queue
}

// computeReachability fills Cover and the down view's strings. Down
// links form a DAG ordered by increasing (level, id), so a single sweep
// in decreasing order suffices: each switch's set is its own nodes
// united, run list by run list, with the sets of the switches below its
// down ports.
func (r *Routing) computeReachability() {
	t := r.Topo
	S := t.NumSwitches
	N := t.NumNodes

	order := make([]int, S)
	for i := range order {
		order[i] = i
	}
	// Decreasing (level, id): every down edge from s points to a switch
	// strictly later in increasing order, hence earlier in this sweep.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if r.Level[a] != r.Level[b] {
			return r.Level[a] > r.Level[b]
		}
		return a > b
	})
	nodes := t.NodesBySwitch()
	r.Cover = make([]*destset.Runs, S)
	acc := destset.NewRuns(N) // the union's scratch; each Cover keeps an exact copy
	for _, s := range order {
		acc.Clear()
		for _, n := range nodes[s] {
			acc.Add(int(n))
		}
		for i := range r.down[s] {
			dl := &r.down[s][i]
			dl.Reach = r.Cover[t.Conn[s][dl.Port].Switch] // computed earlier in the sweep
			acc.UnionWith(dl.Reach)
		}
		r.Cover[s] = destset.NewRuns(N)
		r.Cover[s].CopyFrom(acc)
	}
}

// verifyPairwiseMax bounds the switch count for verify's exhaustive
// pairwise-reachability sweep (covers every paper/S/M experiment size).
const verifyPairwiseMax = 2048

// verify checks the invariants the rest of the system depends on.
func (r *Routing) verify() error {
	t := r.Topo
	// Every non-root switch has at least one up port (its tree parent
	// link), and the root has none.
	for s := 0; s < t.NumSwitches; s++ {
		ups := len(r.up[s])
		if s == int(r.Root) && ups != 0 {
			return fmt.Errorf("updown: root has %d up ports", ups)
		}
		if s != int(r.Root) && ups == 0 {
			return fmt.Errorf("updown: switch %d has no up port", s)
		}
	}
	// Every switch pair must be mutually reachable by a legal route.
	// The explicit pairwise sweep runs every destination's row BFS —
	// O(S·(S+L)) time — so it is gated to paper/experiment sizes. The rows
	// are computed in one reused scratch pair and never published: O(S)
	// space, and routing builds only the rows it later routes toward. At
	// larger sizes the property holds structurally: every switch has an
	// all-up path to the root (the tree-parent chain, whose
	// (level, id) strictly decreases — checked above via up ports), and
	// every tree edge parent→child is a down link, so the root reaches
	// every switch down-only (the root-cover check below confirms
	// the node-level consequence). Climb-then-descend is a legal route.
	if t.NumSwitches <= verifyPairwiseMax {
		dist := make(distRow, 2*t.NumSwitches)
		queue := make([]int32, 0, 2*t.NumSwitches)
		for d := 0; d < t.NumSwitches; d++ {
			queue = r.reverseBFS(d, dist, queue)
			for s := 0; s < t.NumSwitches; s++ {
				if dist.at(topology.SwitchID(s), PhaseUp) >= unreachable32 {
					return fmt.Errorf("updown: no legal route %d -> %d", s, d)
				}
			}
		}
	}
	// The root must cover every node (tree worms terminate there at
	// worst).
	if r.Cover[r.Root].Count() != t.NumNodes {
		return fmt.Errorf("updown: root covers %d of %d nodes", r.Cover[r.Root].Count(), t.NumNodes)
	}
	return nil
}

// PortAlive reports whether switch s, port p survived the fault mask: its
// link is not listed dead. Node and open ports are always alive.
func (r *Routing) PortAlive(s topology.SwitchID, p int) bool {
	return !r.deadPort[s][p]
}

// DistUp returns the shortest legal route length in switch hops from s
// (fresh) to d.
func (r *Routing) DistUp(s, d topology.SwitchID) int {
	v := r.row(d).at(s, PhaseUp)
	if v >= unreachable32 {
		return unreachable
	}
	return int(v)
}

// DistDown returns the shortest down-only route length from s to d, or
// ok=false when no down-only route exists.
func (r *Routing) DistDown(s, d topology.SwitchID) (int, bool) {
	v := r.row(d).at(s, PhaseDown)
	if v >= unreachable32 {
		return unreachable, false
	}
	return int(v), true
}

// NodePortAt returns the port of switch s wired to node n, or -1 if n is
// not attached to s. Computed from the topology's node attachment arrays
// rather than a precomputed S×N table (which would be quadratic in
// system size).
func (r *Routing) NodePortAt(s topology.SwitchID, n topology.NodeID) int {
	if r.Topo.NodeSwitch[n] == s {
		return r.Topo.NodePort[n]
	}
	return -1
}

// NextHops appends to ports and phases the adaptive candidate output
// ports at switch s, in phase ph, for a packet headed to switch d: every
// port whose traversal is legal and lies on a shortest remaining legal
// route, in ascending port order, with the phase each one leaves in. It
// returns the extended slices; callers that want fresh slices pass nil.
func (r *Routing) NextHops(s topology.SwitchID, ph Phase, d topology.SwitchID, ports []int, phases []Phase) ([]int, []Phase) {
	if s == d {
		return ports, phases
	}
	t := r.Topo
	row := r.row(d)
	cur := row.at(s, ph)
	for p := 0; p < t.PortsPerSwitch; p++ {
		e := t.Conn[s][p]
		if e.Kind != topology.ToSwitch {
			continue
		}
		q := e.Switch
		switch r.Dirs[s][p] {
		case DirUp:
			if ph == PhaseDown {
				continue // illegal turn
			}
			if row.at(q, PhaseUp)+1 == cur {
				ports = append(ports, p)
				phases = append(phases, PhaseUp)
			}
		case DirDown:
			if row.at(q, PhaseDown)+1 == cur {
				ports = append(ports, p)
				phases = append(phases, PhaseDown)
			}
		}
	}
	return ports, phases
}

// UpLinks returns s's up ports in ascending order with the switches they
// climb to. The slice is shared: callers must not modify it.
func (r *Routing) UpLinks(s topology.SwitchID) []UpLink { return r.up[s] }

// DownLinks returns s's down ports in ascending order with their
// reachability strings. The slice is shared: callers must not modify it.
func (r *Routing) DownLinks(s topology.SwitchID) []DownLink { return r.down[s] }

// UpInto returns the switches with an up link to q, one entry per link,
// in ascending (switch, port) order. The slice is shared: callers must
// not modify it.
func (r *Routing) UpInto(q topology.SwitchID) []topology.SwitchID { return r.upInto[q] }

// DownReach returns the reachability string of down port p of switch s:
// node n is in the set iff n is legally reachable by entering that port
// and continuing on down links only. That is the peer switch's Cover,
// returned shared, not copied. Nil for non-down ports.
func (r *Routing) DownReach(s topology.SwitchID, p int) *destset.Runs {
	if r.Dirs[s][p] != DirDown {
		return nil
	}
	return r.Cover[r.Topo.Conn[s][p].Switch]
}
