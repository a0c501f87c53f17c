// Package topology models irregular switch-based interconnects.
//
// Following the paper's system model (§2.1), a network is a set of switches,
// each with a fixed number of ports. Ports connect to processing nodes
// (hosts), to ports of other switches (bidirectional links; multiple links
// between the same switch pair are allowed), or are left open. The only
// structural guarantee is that the switch graph is connected.
//
// The package provides the Topology type, a seeded random generator for
// irregular topologies, validation, and text/DOT serialization. Routing is
// deliberately not here — see package updown.
package topology

import (
	"fmt"
)

// SwitchID identifies a switch, in [0, NumSwitches).
type SwitchID int

// NodeID identifies a processing node (host), in [0, NumNodes).
type NodeID int

// EndpointKind says what a switch port is wired to.
type EndpointKind uint8

const (
	// Open means the port is unconnected.
	Open EndpointKind = iota
	// ToSwitch means the port connects to a port of another switch.
	ToSwitch
	// ToNode means the port connects to a processing node's NI.
	ToNode
)

// Endpoint describes the far side of a switch port.
type Endpoint struct {
	Kind   EndpointKind
	Switch SwitchID // valid when Kind == ToSwitch
	Port   int      // valid when Kind == ToSwitch
	Node   NodeID   // valid when Kind == ToNode
}

// Link is one bidirectional inter-switch link, identified by its two port
// endpoints. A Link appears once in Topology.Links with A < B by (switch,
// port) order.
type Link struct {
	A, B  SwitchID
	APort int
	BPort int
}

// MaxPortsPerSwitch is the widest switch a topology file may declare: a
// path worm's per-stop port mask (paper §3.2.4) has one bit per port, and
// the wire codec encodes masks up to this width.
const MaxPortsPerSwitch = 256

// Topology is an immutable irregular network description.
//
// Construct one with Generate or Build; mutating the exported slices after
// construction invalidates derived state elsewhere and is not supported.
type Topology struct {
	// NumSwitches and PortsPerSwitch give the switch array shape. All
	// switches have the same port count (paper: "eight 8-port switches").
	NumSwitches    int
	PortsPerSwitch int
	// NumNodes is the number of processing nodes attached to the network.
	NumNodes int

	// Conn[s][p] is the far end of switch s, port p.
	Conn [][]Endpoint

	// NodeSwitch[n] / NodePort[n] locate node n's attachment point.
	NodeSwitch []SwitchID
	NodePort   []int

	// Links lists each inter-switch link exactly once.
	Links []Link

	// Views Build derives once and every routing and network built on the
	// topology shares read-only.
	linkEnd []int32    // [s*PortsPerSwitch+p]: see LinkEnd
	nodesBy [][]NodeID // see NodesBySwitch
	hostLo  []int32    // see HostSpan
	hostHi  []int32
}

// Build assembles and validates a Topology from explicit wiring. links lists
// inter-switch connections as (switchA, portA, switchB, portB); nodes lists
// attachments as (switch, port) per node in node-ID order.
func Build(numSwitches, portsPerSwitch int, links [][4]int, nodes [][2]int) (*Topology, error) {
	t := &Topology{
		NumSwitches:    numSwitches,
		PortsPerSwitch: portsPerSwitch,
		NumNodes:       len(nodes),
		Conn:           make([][]Endpoint, numSwitches),
		NodeSwitch:     make([]SwitchID, len(nodes)),
		NodePort:       make([]int, len(nodes)),
	}
	for s := range t.Conn {
		t.Conn[s] = make([]Endpoint, portsPerSwitch)
	}
	claim := func(s, p int) error {
		if s < 0 || s >= numSwitches {
			return fmt.Errorf("switch %d out of range", s)
		}
		if p < 0 || p >= portsPerSwitch {
			return fmt.Errorf("port %d out of range on switch %d", p, s)
		}
		if t.Conn[s][p].Kind != Open {
			return fmt.Errorf("switch %d port %d wired twice", s, p)
		}
		return nil
	}
	for _, l := range links {
		sa, pa, sb, pb := l[0], l[1], l[2], l[3]
		if sa == sb {
			return nil, fmt.Errorf("self-link on switch %d", sa)
		}
		if err := claim(sa, pa); err != nil {
			return nil, err
		}
		if err := claim(sb, pb); err != nil {
			return nil, err
		}
		t.Conn[sa][pa] = Endpoint{Kind: ToSwitch, Switch: SwitchID(sb), Port: pb}
		t.Conn[sb][pb] = Endpoint{Kind: ToSwitch, Switch: SwitchID(sa), Port: pa}
	}
	for n, at := range nodes {
		s, p := at[0], at[1]
		if err := claim(s, p); err != nil {
			return nil, fmt.Errorf("node %d: %w", n, err)
		}
		t.Conn[s][p] = Endpoint{Kind: ToNode, Node: NodeID(n)}
		t.NodeSwitch[n] = SwitchID(s)
		t.NodePort[n] = p
	}
	t.rebuildLinks()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.buildViews()
	return t, nil
}

// buildViews derives the port-to-link-end index, the per-switch host
// lists and their contiguous spans.
func (t *Topology) buildViews() {
	S, P := t.NumSwitches, t.PortsPerSwitch
	t.linkEnd = make([]int32, S*P)
	for i := range t.linkEnd {
		t.linkEnd[i] = -1
	}
	for i, l := range t.Links {
		t.linkEnd[int(l.A)*P+l.APort] = int32(2 * i)
		t.linkEnd[int(l.B)*P+l.BPort] = int32(2*i + 1)
	}

	counts := make([]int, S)
	for _, s := range t.NodeSwitch {
		counts[s]++
	}
	buf := make([]NodeID, t.NumNodes)
	t.nodesBy = make([][]NodeID, S)
	pos := 0
	for s := range t.nodesBy {
		t.nodesBy[s] = buf[pos : pos : pos+counts[s]]
		pos += counts[s]
	}
	for n := 0; n < t.NumNodes; n++ {
		s := t.NodeSwitch[n]
		t.nodesBy[s] = append(t.nodesBy[s], NodeID(n))
	}

	t.hostLo = make([]int32, S)
	t.hostHi = make([]int32, S)
	for s, nodes := range t.nodesBy {
		switch {
		case len(nodes) == 0:
			t.hostLo[s], t.hostHi[s] = 0, -1
		case int(nodes[len(nodes)-1])-int(nodes[0])+1 == len(nodes):
			// Ids are listed ascending, so an exact span means the
			// attachment is contiguous.
			t.hostLo[s], t.hostHi[s] = int32(nodes[0]), int32(nodes[len(nodes)-1])
		default:
			t.hostLo[s], t.hostHi[s] = -1, -2
		}
	}
}

// rebuildLinks recomputes Links from Conn.
func (t *Topology) rebuildLinks() {
	t.Links = t.Links[:0]
	for s := 0; s < t.NumSwitches; s++ {
		for p := 0; p < t.PortsPerSwitch; p++ {
			e := t.Conn[s][p]
			if e.Kind != ToSwitch {
				continue
			}
			// Emit each link once, from its lexicographically smaller end.
			if int(e.Switch) > s || (int(e.Switch) == s && e.Port > p) {
				t.Links = append(t.Links, Link{
					A: SwitchID(s), APort: p,
					B: e.Switch, BPort: e.Port,
				})
			}
		}
	}
}

// Validate checks structural invariants: port symmetry, node table
// consistency, and switch-graph connectivity.
func (t *Topology) Validate() error {
	if t.NumSwitches <= 0 || t.PortsPerSwitch <= 0 {
		return fmt.Errorf("topology: empty switch array")
	}
	seenNode := make([]bool, t.NumNodes)
	for s := 0; s < t.NumSwitches; s++ {
		if len(t.Conn[s]) != t.PortsPerSwitch {
			return fmt.Errorf("switch %d has %d ports, want %d", s, len(t.Conn[s]), t.PortsPerSwitch)
		}
		for p := 0; p < t.PortsPerSwitch; p++ {
			e := t.Conn[s][p]
			switch e.Kind {
			case Open:
			case ToSwitch:
				if int(e.Switch) < 0 || int(e.Switch) >= t.NumSwitches {
					return fmt.Errorf("switch %d port %d: peer switch %d out of range", s, p, e.Switch)
				}
				back := t.Conn[e.Switch][e.Port]
				if back.Kind != ToSwitch || int(back.Switch) != s || back.Port != p {
					return fmt.Errorf("switch %d port %d: asymmetric link", s, p)
				}
				if int(e.Switch) == s {
					return fmt.Errorf("switch %d: self-link", s)
				}
			case ToNode:
				n := int(e.Node)
				if n < 0 || n >= t.NumNodes {
					return fmt.Errorf("switch %d port %d: node %d out of range", s, p, n)
				}
				if seenNode[n] {
					return fmt.Errorf("node %d attached twice", n)
				}
				seenNode[n] = true
				if t.NodeSwitch[n] != SwitchID(s) || t.NodePort[n] != p {
					return fmt.Errorf("node %d attachment table disagrees with wiring", n)
				}
			default:
				return fmt.Errorf("switch %d port %d: bad endpoint kind %d", s, p, e.Kind)
			}
		}
	}
	for n, ok := range seenNode {
		if !ok {
			return fmt.Errorf("node %d not attached", n)
		}
	}
	if !t.Connected() {
		return fmt.Errorf("topology: switch graph is not connected")
	}
	return nil
}

// Connected reports whether every switch is reachable from switch 0 over
// inter-switch links.
func (t *Topology) Connected() bool {
	if t.NumSwitches == 0 {
		return false
	}
	seen := make([]bool, t.NumSwitches)
	queue := []SwitchID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, e := range t.Conn[s] {
			if e.Kind == ToSwitch && !seen[e.Switch] {
				seen[e.Switch] = true
				count++
				queue = append(queue, e.Switch)
			}
		}
	}
	return count == t.NumSwitches
}

// SwitchNeighbors returns, for each switch, the multiset of adjacent
// switches (one entry per link, so parallel links appear multiple times).
func (t *Topology) SwitchNeighbors() [][]SwitchID {
	adj := make([][]SwitchID, t.NumSwitches)
	for s := 0; s < t.NumSwitches; s++ {
		for _, e := range t.Conn[s] {
			if e.Kind == ToSwitch {
				adj[s] = append(adj[s], e.Switch)
			}
		}
	}
	return adj
}

// NodesAt returns the nodes attached to switch s, ascending by node ID.
func (t *Topology) NodesAt(s SwitchID) []NodeID {
	var out []NodeID
	for n := 0; n < t.NumNodes; n++ {
		if t.NodeSwitch[n] == s {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// NodesBySwitch returns the attached nodes of every switch, ascending by
// node ID. Build derives the lists once, in one O(N + S) pass over the
// attachment table, and every call returns them shared: callers must
// not modify them. Per-switch NodesAt calls are O(N) each, which turns
// precomputation loops quadratic at datacenter scale; builders over all
// switches use this.
func (t *Topology) NodesBySwitch() [][]NodeID { return t.nodesBy }

// HostSpan returns switch s's attached hosts as the id range [lo, hi]
// when they are numbered contiguously, as every scale generator numbers
// them per edge switch; lo > hi for a hostless switch. ok is false when
// the ids are not contiguous, and callers then read NodesBySwitch.
func (t *Topology) HostSpan(s SwitchID) (lo, hi int, ok bool) {
	lo, hi = int(t.hostLo[s]), int(t.hostHi[s])
	return lo, hi, lo >= 0
}

// OpenPorts returns the number of unconnected ports on switch s.
func (t *Topology) OpenPorts(s SwitchID) int {
	c := 0
	for _, e := range t.Conn[s] {
		if e.Kind == Open {
			c++
		}
	}
	return c
}

// RemoveLink returns a copy of t with the i-th entry of Links removed —
// the reconfiguration primitive behind fault experiments (the paper's §1
// motivates irregular topologies by their amenability to reconfiguration
// and fault resistance). It fails if the removal disconnects the switch
// graph; the caller then knows the link was a bridge.
func (t *Topology) RemoveLink(i int) (*Topology, error) {
	if i < 0 || i >= len(t.Links) {
		return nil, fmt.Errorf("topology: link index %d out of range", i)
	}
	var links [][4]int
	for j, l := range t.Links {
		if j == i {
			continue
		}
		links = append(links, [4]int{int(l.A), l.APort, int(l.B), l.BPort})
	}
	nodes := make([][2]int, t.NumNodes)
	for n := 0; n < t.NumNodes; n++ {
		nodes[n] = [2]int{int(t.NodeSwitch[n]), t.NodePort[n]}
	}
	return Build(t.NumSwitches, t.PortsPerSwitch, links, nodes)
}

// LinkEnd returns the link end at switch s, port p: 2i for the A end of
// Links[i] and 2i+1 for its B end, so e^1 is the far end of end e and
// e/2 its link. It returns -1 for an open port or a port to a node. The
// ends number the switch-to-switch ports densely, in [0, 2*len(Links)),
// for state kept per port; s and p must be in range.
func (t *Topology) LinkEnd(s SwitchID, p int) int {
	return int(t.linkEnd[int(s)*t.PortsPerSwitch+p])
}

// LinkAt returns the index into Links of the inter-switch link attached to
// switch s, port p, or -1 if that port is open or hosts a node. Fault
// schedules use it to translate (switch, port) observations into link IDs.
func (t *Topology) LinkAt(s SwitchID, p int) int {
	if int(s) < 0 || int(s) >= t.NumSwitches || p < 0 || p >= t.PortsPerSwitch {
		return -1
	}
	if e := t.LinkEnd(s, p); e >= 0 {
		return e / 2
	}
	return -1
}

// ConnectedExcluding reports whether the switch graph stays connected when
// the flagged links and switches are treated as dead. deadLink is indexed
// like Links, deadSwitch like switch IDs; either may be nil (nothing dead).
// Fault planners use it to pick non-partitioning failure schedules.
func (t *Topology) ConnectedExcluding(deadLink []bool, deadSwitch []bool) bool {
	linkDead := func(i int) bool { return i < len(deadLink) && deadLink[i] }
	swDead := func(s SwitchID) bool { return int(s) < len(deadSwitch) && deadSwitch[s] }
	start := SwitchID(-1)
	alive := 0
	for s := 0; s < t.NumSwitches; s++ {
		if !swDead(SwitchID(s)) {
			if start == -1 {
				start = SwitchID(s)
			}
			alive++
		}
	}
	if alive == 0 {
		return false
	}
	seen := make([]bool, t.NumSwitches)
	seen[start] = true
	count := 1
	queue := []SwitchID{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for p, e := range t.Conn[s] {
			if e.Kind != ToSwitch || seen[e.Switch] || swDead(e.Switch) {
				continue
			}
			if linkDead(t.LinkAt(s, p)) {
				continue
			}
			seen[e.Switch] = true
			count++
			queue = append(queue, e.Switch)
		}
	}
	return count == alive
}

// SwitchDistances returns hop distances between switches over inter-switch
// links (BFS from each switch). Distances[i][j] == -1 never occurs for a
// validated topology since the graph is connected.
func (t *Topology) SwitchDistances() [][]int {
	adj := t.SwitchNeighbors()
	all := make([][]int, t.NumSwitches)
	for src := 0; src < t.NumSwitches; src++ {
		dist := make([]int, t.NumSwitches)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []SwitchID{SwitchID(src)}
		for len(queue) > 0 {
			s := queue[0]
			queue = queue[1:]
			for _, nb := range adj[s] {
				if dist[nb] == -1 {
					dist[nb] = dist[s] + 1
					queue = append(queue, nb)
				}
			}
		}
		all[src] = dist
	}
	return all
}
