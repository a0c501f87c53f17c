package updown

import (
	"testing"

	"mcastsim/internal/bitset"
	"mcastsim/internal/topology"
)

// fixture builds the 8-switch graph used across the topology tests (the
// paper's Figure 1 shape), one node per switch.
func fixture(t *testing.T) (*topology.Topology, *Routing) {
	t.Helper()
	links := [][4]int{
		{0, 0, 1, 0}, {0, 1, 2, 0}, {1, 1, 3, 0}, {2, 1, 3, 1}, {2, 2, 4, 0},
		{3, 2, 5, 0}, {4, 1, 5, 1}, {4, 2, 6, 0}, {5, 2, 7, 0}, {6, 1, 7, 1},
	}
	nodes := make([][2]int, 8)
	for n := range nodes {
		nodes[n] = [2]int{n, 7}
	}
	topo, err := topology.Build(8, 8, links, nodes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return topo, r
}

func family(t *testing.T, cfg topology.Config, count int, seed uint64) []*Routing {
	t.Helper()
	topos, err := topology.GenerateFamily(cfg, count, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Routing, len(topos))
	for i, topo := range topos {
		r, err := New(topo)
		if err != nil {
			t.Fatalf("topology %d: %v", i, err)
		}
		out[i] = r
	}
	return out
}

func TestBFSLevelsFixture(t *testing.T) {
	_, r := fixture(t)
	want := []int{0, 1, 1, 2, 2, 3, 3, 4}
	for s, lv := range r.Level {
		if lv != want[s] {
			t.Fatalf("level[%d] = %d, want %d", s, lv, want[s])
		}
	}
	if r.Root != 0 {
		t.Fatalf("root = %d", r.Root)
	}
}

func TestParentIsCloser(t *testing.T) {
	for _, r := range family(t, topology.DefaultConfig(), 10, 42) {
		for s, par := range r.Parent {
			if s == int(r.Root) {
				if par != -1 {
					t.Fatal("root has a parent")
				}
				continue
			}
			if r.Level[par] != r.Level[s]-1 {
				t.Fatalf("parent level mismatch at switch %d", s)
			}
		}
	}
}

func TestOrientationAntisymmetric(t *testing.T) {
	// For every inter-switch link, exactly one end must be up and the
	// other down.
	for _, r := range family(t, topology.DefaultConfig(), 10, 43) {
		topo := r.Topo
		for _, l := range topo.Links {
			da := r.Dirs[l.A][l.APort]
			db := r.Dirs[l.B][l.BPort]
			if !((da == DirUp && db == DirDown) || (da == DirDown && db == DirUp)) {
				t.Fatalf("link %+v oriented %v/%v", l, da, db)
			}
		}
	}
}

func TestUpMovesDecreaseLevelID(t *testing.T) {
	// Any up traversal strictly decreases (level, id) lexicographically —
	// the acyclicity argument of §2.2.
	for _, r := range family(t, topology.Config{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}, 10, 44) {
		topo := r.Topo
		for s := 0; s < topo.NumSwitches; s++ {
			for p := 0; p < topo.PortsPerSwitch; p++ {
				if r.Dirs[s][p] != DirUp {
					continue
				}
				q := int(topo.Conn[s][p].Switch)
				if !(r.Level[q] < r.Level[s] || (r.Level[q] == r.Level[s] && q < s)) {
					t.Fatalf("up move %d->%d does not decrease (level,id)", s, q)
				}
			}
		}
	}
}

func TestAllPairsLegallyReachable(t *testing.T) {
	cfgs := []topology.Config{
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: 0}, // pure tree
	}
	for _, cfg := range cfgs {
		for _, r := range family(t, cfg, 5, 45) {
			S := r.Topo.NumSwitches
			for a := 0; a < S; a++ {
				for b := 0; b < S; b++ {
					d := r.DistUp(topology.SwitchID(a), topology.SwitchID(b))
					if a == b && d != 0 {
						t.Fatalf("DistUp(%d,%d) = %d", a, b, d)
					}
					if d >= unreachable {
						t.Fatalf("pair %d->%d unreachable", a, b)
					}
				}
			}
		}
	}
}

func TestDistUpAtLeastGraphDistance(t *testing.T) {
	// Legal routes are a subset of all routes, so the legal distance can
	// never beat plain BFS distance.
	for _, r := range family(t, topology.DefaultConfig(), 10, 46) {
		plain := r.Topo.SwitchDistances()
		S := r.Topo.NumSwitches
		for a := 0; a < S; a++ {
			for b := 0; b < S; b++ {
				if r.DistUp(topology.SwitchID(a), topology.SwitchID(b)) < plain[a][b] {
					t.Fatalf("legal distance beats BFS for %d->%d", a, b)
				}
			}
		}
	}
}

func TestNextHopsLegalAndShortest(t *testing.T) {
	for _, r := range family(t, topology.DefaultConfig(), 8, 47) {
		topo := r.Topo
		S := topo.NumSwitches
		for a := 0; a < S; a++ {
			for b := 0; b < S; b++ {
				if a == b {
					continue
				}
				for _, ph := range []Phase{PhaseUp, PhaseDown} {
					row := r.row(topology.SwitchID(b))
					var cur int32
					if ph == PhaseUp {
						cur = row.up[a]
					} else {
						cur = row.down[a]
					}
					ports, phases := r.NextHops(topology.SwitchID(a), ph, topology.SwitchID(b))
					if cur >= unreachable32 {
						if len(ports) != 0 {
							t.Fatalf("unreachable state has next hops")
						}
						continue
					}
					if len(ports) == 0 {
						t.Fatalf("reachable state (%d,%v)->%d has no next hops", a, ph, b)
					}
					for i, p := range ports {
						dir := r.Dirs[a][p]
						if ph == PhaseDown && dir != DirDown {
							t.Fatalf("illegal up turn offered at switch %d", a)
						}
						q := topo.Conn[a][p].Switch
						var rem int32
						if phases[i] == PhaseUp {
							rem = row.up[q]
						} else {
							rem = row.down[q]
						}
						if rem+1 != cur {
							t.Fatalf("non-shortest hop offered at switch %d", a)
						}
						if dir == DirDown && phases[i] != PhaseDown {
							t.Fatalf("down move did not switch phase")
						}
						if dir == DirUp && phases[i] != PhaseUp {
							t.Fatalf("up move changed phase")
						}
					}
				}
			}
		}
	}
}

// walkAllLegalRoutes drives NextHops transitions and confirms no route ever
// makes an up turn after a down turn (exhaustive over adaptive choices).
func TestNoUpAfterDownByConstruction(t *testing.T) {
	_, r := fixture(t)
	topo := r.Topo
	S := topo.NumSwitches
	for a := 0; a < S; a++ {
		for b := 0; b < S; b++ {
			if a == b {
				continue
			}
			// DFS over (switch, phase) following only NextHops choices.
			type state struct {
				s  topology.SwitchID
				ph Phase
			}
			stack := []state{{topology.SwitchID(a), PhaseUp}}
			seen := map[state]bool{}
			for len(stack) > 0 {
				st := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[st] || st.s == topology.SwitchID(b) {
					continue
				}
				seen[st] = true
				ports, phases := r.NextHops(st.s, st.ph, topology.SwitchID(b))
				for i, p := range ports {
					if st.ph == PhaseDown && r.Dirs[st.s][p] == DirUp {
						t.Fatalf("up after down %d->%d", a, b)
					}
					stack = append(stack, state{topo.Conn[st.s][p].Switch, phases[i]})
				}
			}
		}
	}
}

func TestDownReachExact(t *testing.T) {
	// DownReach[s][p] must equal the set computed by explicit DFS over
	// down links from the far end of p.
	for _, r := range family(t, topology.DefaultConfig(), 10, 48) {
		topo := r.Topo
		for s := 0; s < topo.NumSwitches; s++ {
			for p := 0; p < topo.PortsPerSwitch; p++ {
				if r.Dirs[s][p] != DirDown {
					if r.DownReach[s][p] != nil {
						t.Fatalf("non-down port %d/%d has reachability", s, p)
					}
					continue
				}
				want := bitset.New(topo.NumNodes)
				var dfs func(q topology.SwitchID)
				visited := map[topology.SwitchID]bool{}
				dfs = func(q topology.SwitchID) {
					if visited[q] {
						return
					}
					visited[q] = true
					for _, n := range topo.NodesAt(q) {
						want.Add(int(n))
					}
					for pp := 0; pp < topo.PortsPerSwitch; pp++ {
						if r.Dirs[q][pp] == DirDown {
							dfs(topo.Conn[q][pp].Switch)
						}
					}
				}
				dfs(topo.Conn[s][p].Switch)
				if !want.Equal(r.DownReach[s][p]) {
					t.Fatalf("DownReach mismatch at switch %d port %d", s, p)
				}
			}
		}
	}
}

func TestRootCoversEverything(t *testing.T) {
	for _, r := range family(t, topology.Config{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}, 10, 49) {
		if r.Cover[r.Root].Count() != r.Topo.NumNodes {
			t.Fatal("root does not cover all nodes")
		}
	}
}

func TestCoverIsLocalPlusDownReach(t *testing.T) {
	for _, r := range family(t, topology.DefaultConfig(), 5, 50) {
		topo := r.Topo
		for s := 0; s < topo.NumSwitches; s++ {
			want := bitset.New(topo.NumNodes)
			for _, n := range topo.NodesAt(topology.SwitchID(s)) {
				want.Add(int(n))
			}
			for _, p := range r.DownPorts(topology.SwitchID(s)) {
				want.UnionWith(r.DownReach[s][p])
			}
			if !want.Equal(r.Cover[s]) {
				t.Fatalf("Cover mismatch at switch %d", s)
			}
		}
	}
}

func TestDistDownConsistentWithReach(t *testing.T) {
	// A node n is in Cover[s] iff its home switch is down-reachable from s
	// (or is s itself).
	for _, r := range family(t, topology.DefaultConfig(), 10, 51) {
		topo := r.Topo
		for s := 0; s < topo.NumSwitches; s++ {
			for n := 0; n < topo.NumNodes; n++ {
				home := topo.NodeSwitch[n]
				_, downOK := r.DistDown(topology.SwitchID(s), home)
				inCover := r.Cover[s].Contains(n)
				if downOK != inCover {
					t.Fatalf("switch %d node %d: DistDown ok=%v but Cover=%v", s, n, downOK, inCover)
				}
			}
		}
	}
}

func TestUpPortsParentFirst(t *testing.T) {
	for _, r := range family(t, topology.DefaultConfig(), 5, 53) {
		topo := r.Topo
		for s := 0; s < topo.NumSwitches; s++ {
			if s == int(r.Root) {
				if len(r.UpPorts(topology.SwitchID(s))) != 0 {
					t.Fatal("root has up ports")
				}
				continue
			}
			ups := r.UpPorts(topology.SwitchID(s))
			if len(ups) == 0 {
				t.Fatalf("switch %d has no up ports", s)
			}
			if topo.Conn[s][ups[0]].Switch != r.Parent[s] {
				t.Fatalf("switch %d: first up port is not the tree parent", s)
			}
		}
	}
}

func TestNodePortAt(t *testing.T) {
	topo, r := fixture(t)
	for n := 0; n < topo.NumNodes; n++ {
		home := topo.NodeSwitch[n]
		if got := r.NodePortAt(home, topology.NodeID(n)); got != topo.NodePort[n] {
			t.Fatalf("NodePortAt(%d,%d) = %d", home, n, got)
		}
		other := topology.SwitchID((int(home) + 1) % topo.NumSwitches)
		if got := r.NodePortAt(other, topology.NodeID(n)); got != -1 {
			t.Fatalf("NodePortAt wrong switch returned %d", got)
		}
	}
}

func TestDirString(t *testing.T) {
	if DirUp.String() != "up" || DirDown.String() != "down" || DirNone.String() != "none" {
		t.Fatal("Dir.String broken")
	}
}

func TestNewWithOptionsExplicitRoot(t *testing.T) {
	_, rDefault := fixture(t)
	topo := rDefault.Topo
	for root := 0; root < topo.NumSwitches; root++ {
		r, err := NewWithOptions(topo, Options{Root: topology.SwitchID(root)})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if r.Root != topology.SwitchID(root) {
			t.Fatalf("root %d not applied", root)
		}
		if r.Level[root] != 0 {
			t.Fatalf("root %d level %d", root, r.Level[root])
		}
		// All invariants must hold for every root choice.
		if r.Cover[root].Count() != topo.NumNodes {
			t.Fatalf("root %d does not cover all nodes", root)
		}
	}
}

func TestNewWithOptionsRejectsBadRoot(t *testing.T) {
	_, r := fixture(t)
	if _, err := NewWithOptions(r.Topo, Options{Root: 99}); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestCenterRootShallowerOrEqual(t *testing.T) {
	// The center root's tree depth can never exceed the default root's
	// eccentricity-driven depth; usually it is strictly smaller.
	deeper := 0
	for _, cfg := range []topology.Config{
		{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
	} {
		topos, err := topology.GenerateFamily(cfg, 10, 321)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topos {
			def, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			cen, err := NewWithOptions(topo, Options{Root: -1, CenterRoot: true})
			if err != nil {
				t.Fatal(err)
			}
			maxLevel := func(r *Routing) int {
				m := 0
				for _, l := range r.Level {
					if l > m {
						m = l
					}
				}
				return m
			}
			if maxLevel(cen) > maxLevel(def) {
				deeper++
			}
		}
	}
	if deeper > 0 {
		t.Fatalf("center root produced a deeper tree on %d topologies", deeper)
	}
}

func TestDFSTreeInvariants(t *testing.T) {
	// DFS construction must satisfy every invariant the verify() pass
	// checks (it runs inside NewWithOptions), plus DFS-specific shape:
	// parent levels differ by exactly one and trees are generally deeper
	// than BFS trees.
	deeperOrEqual := 0
	total := 0
	for _, cfg := range []topology.Config{
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
	} {
		topos, err := topology.GenerateFamily(cfg, 8, 555)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topos {
			dfs, err := NewWithOptions(topo, Options{Root: -1, Tree: TreeDFS})
			if err != nil {
				t.Fatalf("DFS routing failed: %v", err)
			}
			bfs, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			for s, par := range dfs.Parent {
				if s == int(dfs.Root) {
					continue
				}
				if dfs.Level[s] != dfs.Level[par]+1 {
					t.Fatalf("DFS parent level gap at switch %d", s)
				}
			}
			maxL := func(r *Routing) int {
				m := 0
				for _, l := range r.Level {
					if l > m {
						m = l
					}
				}
				return m
			}
			total++
			if maxL(dfs) >= maxL(bfs) {
				deeperOrEqual++
			}
		}
	}
	if deeperOrEqual < total {
		t.Fatalf("DFS tree shallower than BFS on %d/%d topologies", total-deeperOrEqual, total)
	}
}

func TestDFSRoutingAllPairs(t *testing.T) {
	topos, err := topology.GenerateFamily(topology.DefaultConfig(), 5, 777)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topos {
		r, err := NewWithOptions(topo, Options{Root: -1, Tree: TreeDFS})
		if err != nil {
			t.Fatal(err)
		}
		S := topo.NumSwitches
		for a := 0; a < S; a++ {
			for b := 0; b < S; b++ {
				if r.DistUp(topology.SwitchID(a), topology.SwitchID(b)) >= unreachable {
					t.Fatalf("DFS: pair %d->%d unreachable", a, b)
				}
			}
		}
	}
}

func TestMeshRoutingExactLevels(t *testing.T) {
	// On a mesh rooted at switch 0 (corner), BFS levels are Manhattan
	// distances from the corner — an exact-value check of the substrate.
	const rows, cols = 3, 4
	topo, err := topology.Mesh2D(rows, cols, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			if got := r.Level[row*cols+col]; got != row+col {
				t.Fatalf("level[(%d,%d)] = %d, want %d", row, col, got, row+col)
			}
		}
	}
	// Legal distance on a mesh from the corner root equals graph distance
	// for all pairs reachable without an up-after-down violation from the
	// root's perspective... at minimum, distances from the root itself.
	for s := 0; s < rows*cols; s++ {
		if got := r.DistUp(0, topology.SwitchID(s)); got != r.Level[s] {
			t.Fatalf("DistUp(0,%d) = %d, want %d", s, got, r.Level[s])
		}
	}
}

func TestRingOrientationBreaksCycle(t *testing.T) {
	topo, err := topology.Ring(6, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one switch (the "anti-root") has two up ports; the root has
	// none; everyone else has one: the ring's single cycle is broken at
	// one point.
	twoUp, zeroUp := 0, 0
	for s := 0; s < 6; s++ {
		ups := len(r.UpPorts(topology.SwitchID(s)))
		switch ups {
		case 0:
			zeroUp++
		case 2:
			twoUp++
		case 1:
		default:
			t.Fatalf("switch %d has %d up ports", s, ups)
		}
	}
	if zeroUp != 1 || twoUp != 1 {
		t.Fatalf("ring orientation wrong: %d roots, %d anti-roots", zeroUp, twoUp)
	}
}
