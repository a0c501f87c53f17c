package topology

import (
	"testing"

	"mcastsim/internal/rng"
)

// paperFigure1 builds the 8-switch topology of the paper's Figure 1(a)/(b):
// an irregular graph over switches 0..7 with one node per switch (the paper
// draws processing elements on several switches; one each suffices for the
// structural tests that reference this fixture).
func paperFigure1(t *testing.T) *Topology {
	t.Helper()
	links := [][4]int{
		{0, 0, 1, 0},
		{0, 1, 2, 0},
		{1, 1, 3, 0},
		{2, 1, 3, 1},
		{2, 2, 4, 0},
		{3, 2, 5, 0},
		{4, 1, 5, 1},
		{4, 2, 6, 0},
		{5, 2, 7, 0},
		{6, 1, 7, 1},
	}
	nodes := make([][2]int, 8)
	for n := range nodes {
		nodes[n] = [2]int{n, 7} // port 7 of each switch hosts a node
	}
	topo, err := Build(8, 8, links, nodes)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func TestBuildFixture(t *testing.T) {
	topo := paperFigure1(t)
	if topo.NumSwitches != 8 || topo.NumNodes != 8 {
		t.Fatalf("unexpected shape: %d switches, %d nodes", topo.NumSwitches, topo.NumNodes)
	}
	if len(topo.Links) != 10 {
		t.Fatalf("links = %d, want 10", len(topo.Links))
	}
	if !topo.Connected() {
		t.Fatal("fixture should be connected")
	}
}

func TestBuildRejectsSelfLink(t *testing.T) {
	_, err := Build(2, 4, [][4]int{{0, 0, 0, 1}}, nil)
	if err == nil {
		t.Fatal("self-link accepted")
	}
}

func TestBuildRejectsDoubleWiring(t *testing.T) {
	_, err := Build(2, 4, [][4]int{{0, 0, 1, 0}, {0, 0, 1, 1}}, nil)
	if err == nil {
		t.Fatal("double port use accepted")
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	// Two isolated switch pairs.
	_, err := Build(4, 4, [][4]int{{0, 0, 1, 0}, {2, 0, 3, 0}}, nil)
	if err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestBuildRejectsPortOutOfRange(t *testing.T) {
	_, err := Build(2, 4, [][4]int{{0, 4, 1, 0}}, nil)
	if err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestBuildAllowsParallelLinks(t *testing.T) {
	topo, err := Build(2, 4, [][4]int{{0, 0, 1, 0}, {0, 1, 1, 1}}, nil)
	if err != nil {
		t.Fatalf("parallel links rejected: %v", err)
	}
	if len(topo.Links) != 2 {
		t.Fatalf("links = %d, want 2", len(topo.Links))
	}
}

func TestNodesAt(t *testing.T) {
	topo := paperFigure1(t)
	for s := 0; s < 8; s++ {
		nodes := topo.NodesAt(SwitchID(s))
		if len(nodes) != 1 || int(nodes[0]) != s {
			t.Fatalf("NodesAt(%d) = %v", s, nodes)
		}
	}
}

func TestOpenPorts(t *testing.T) {
	topo := paperFigure1(t)
	// Switch 0: 2 links + 1 node on 8 ports -> 5 open.
	if got := topo.OpenPorts(0); got != 5 {
		t.Fatalf("OpenPorts(0) = %d, want 5", got)
	}
}

func TestSwitchDistancesSymmetric(t *testing.T) {
	topo := paperFigure1(t)
	d := topo.SwitchDistances()
	for i := 0; i < 8; i++ {
		if d[i][i] != 0 {
			t.Fatalf("d[%d][%d] = %d", i, i, d[i][i])
		}
		for j := 0; j < 8; j++ {
			if d[i][j] != d[j][i] {
				t.Fatalf("asymmetric distance %d,%d", i, j)
			}
			if d[i][j] < 0 {
				t.Fatalf("unreachable pair %d,%d", i, j)
			}
		}
	}
	// Spot checks on the fixture: 0-{1,2}-{3,4}-{5,6}-7.
	if d[0][7] != 4 {
		t.Fatalf("d[0][7] = %d, want 4", d[0][7])
	}
	if d[0][3] != 2 || d[2][5] != 2 || d[0][1] != 1 {
		t.Fatalf("fixture distances wrong: d[0][3]=%d d[2][5]=%d d[0][1]=%d", d[0][3], d[2][5], d[0][1])
	}
}

func TestGenerateDefaultConfig(t *testing.T) {
	topo, err := Generate(DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if topo.NumSwitches != 8 || topo.PortsPerSwitch != 8 || topo.NumNodes != 32 {
		t.Fatalf("unexpected shape %d/%d/%d", topo.NumSwitches, topo.PortsPerSwitch, topo.NumNodes)
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(), rng.New(99))
	b, _ := Generate(DefaultConfig(), rng.New(99))
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed produced different link counts")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("same seed diverged at link %d", i)
		}
	}
	for n := 0; n < a.NumNodes; n++ {
		if a.NodeSwitch[n] != b.NodeSwitch[n] {
			t.Fatalf("same seed diverged at node %d", n)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(DefaultConfig(), rng.New(1))
	b, _ := Generate(DefaultConfig(), rng.New(2))
	same := len(a.Links) == len(b.Links)
	if same {
		identical := true
		for i := range a.Links {
			if a.Links[i] != b.Links[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical topologies")
		}
	}
}

func TestGenerateManyShapesValid(t *testing.T) {
	root := rng.New(7)
	cfgs := []Config{
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 4, PortsPerSwitch: 16, Nodes: 16, ExtraLinksPerSwitch: -1},
		{Switches: 2, PortsPerSwitch: 4, Nodes: 4, ExtraLinksPerSwitch: -1},
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: 0},
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: 99},
	}
	for _, cfg := range cfgs {
		for trial := 0; trial < 10; trial++ {
			topo, err := Generate(cfg, root.Split())
			if err != nil {
				t.Fatalf("Generate(%+v): %v", cfg, err)
			}
			if err := topo.Validate(); err != nil {
				t.Fatalf("Validate(%+v): %v", cfg, err)
			}
		}
	}
}

func TestGenerateRejectsInfeasible(t *testing.T) {
	// 2 switches x 2 ports: spanning tree needs 2 port-ends, so 3 nodes
	// cannot fit.
	_, err := Generate(Config{Switches: 2, PortsPerSwitch: 2, Nodes: 3}, rng.New(1))
	if err == nil {
		t.Fatal("infeasible config accepted")
	}
}

func TestGenerateFamily(t *testing.T) {
	fam, err := GenerateFamily(DefaultConfig(), 10, 123)
	if err != nil {
		t.Fatalf("GenerateFamily: %v", err)
	}
	if len(fam) != 10 {
		t.Fatalf("family size %d", len(fam))
	}
	// Family members must differ from each other (overwhelmingly likely).
	identicalPairs := 0
	for i := 1; i < len(fam); i++ {
		if len(fam[i].Links) == len(fam[0].Links) {
			same := true
			for k := range fam[i].Links {
				if fam[i].Links[k] != fam[0].Links[k] {
					same = false
					break
				}
			}
			if same {
				identicalPairs++
			}
		}
	}
	if identicalPairs > 0 {
		t.Fatalf("%d family members identical to member 0", identicalPairs)
	}
}

func TestGenerateNoSelfLinks(t *testing.T) {
	fam, err := GenerateFamily(Config{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: 99}, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range fam {
		for _, l := range topo.Links {
			if l.A == l.B {
				t.Fatalf("self link %v", l)
			}
		}
	}
}

func TestRemoveLink(t *testing.T) {
	topo := paperFigure1(t)
	// Removing link 0-1 keeps the graph connected (0-2-3-1 remains).
	var idx = -1
	for i, l := range topo.Links {
		if l.A == 0 && l.B == 1 {
			idx = i
		}
	}
	if idx == -1 {
		t.Fatal("fixture lost its 0-1 link")
	}
	after, err := topo.RemoveLink(idx)
	if err != nil {
		t.Fatalf("RemoveLink: %v", err)
	}
	if len(after.Links) != len(topo.Links)-1 {
		t.Fatalf("links %d, want %d", len(after.Links), len(topo.Links)-1)
	}
	if err := after.Validate(); err != nil {
		t.Fatal(err)
	}
	// The original is untouched.
	if len(topo.Links) != 10 {
		t.Fatal("RemoveLink mutated the original")
	}
}

func TestRemoveLinkRejectsBridge(t *testing.T) {
	// A 2-switch topology's only link is a bridge.
	topo, err := Build(2, 4, [][4]int{{0, 0, 1, 0}}, [][2]int{{0, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.RemoveLink(0); err == nil {
		t.Fatal("bridge removal accepted")
	}
}

func TestRemoveLinkBadIndex(t *testing.T) {
	topo := paperFigure1(t)
	if _, err := topo.RemoveLink(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := topo.RemoveLink(99); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestLinkAt(t *testing.T) {
	topo := paperFigure1(t)
	for i, l := range topo.Links {
		if got := topo.LinkAt(l.A, l.APort); got != i {
			t.Fatalf("LinkAt(%d,%d) = %d, want %d", l.A, l.APort, got, i)
		}
		if got := topo.LinkAt(l.B, l.BPort); got != i {
			t.Fatalf("LinkAt(%d,%d) = %d, want %d", l.B, l.BPort, got, i)
		}
		if a, b := topo.LinkEnd(l.A, l.APort), topo.LinkEnd(l.B, l.BPort); a != 2*i || b != 2*i+1 {
			t.Fatalf("link %d ends = %d, %d, want %d, %d", i, a, b, 2*i, 2*i+1)
		}
	}
	if topo.LinkAt(0, 7) != -1 || topo.LinkEnd(0, 7) != -1 { // node port
		t.Fatal("node port reported as link")
	}
	if topo.LinkAt(0, 5) != -1 || topo.LinkEnd(0, 5) != -1 { // open port
		t.Fatal("open port reported as link")
	}
	if topo.LinkAt(-1, 0) != -1 || topo.LinkAt(0, 99) != -1 {
		t.Fatal("out-of-range lookup did not return -1")
	}
}

func TestConnectedExcluding(t *testing.T) {
	topo := paperFigure1(t)
	if !topo.ConnectedExcluding(nil, nil) {
		t.Fatal("healthy graph reported disconnected")
	}
	// Links 8 (5-7) and 9 (6-7) are switch 7's only attachments: killing
	// one keeps the graph connected, killing both cuts 7 off.
	dead := make([]bool, len(topo.Links))
	dead[8] = true
	if !topo.ConnectedExcluding(dead, nil) {
		t.Fatal("single redundant link loss reported as partition")
	}
	dead[9] = true
	if topo.ConnectedExcluding(dead, nil) {
		t.Fatal("isolating switch 7 not reported as partition")
	}
	// A dead switch takes its links with it: killing switch 7 instead
	// leaves the rest connected.
	deadSw := make([]bool, topo.NumSwitches)
	deadSw[7] = true
	if !topo.ConnectedExcluding(nil, deadSw) {
		t.Fatal("removing leaf switch 7 reported as partition")
	}
	// Killing a cut vertex partitions: switch 2 and links 0,2 leave
	// {0,1,3,5,7...} split from {4,6}? Check with switches 2 and 3 dead,
	// which isolates {0,1} from {4,5,6,7}.
	deadSw = make([]bool, topo.NumSwitches)
	deadSw[2] = true
	deadSw[3] = true
	if topo.ConnectedExcluding(nil, deadSw) {
		t.Fatal("cutting switches 2+3 not reported as partition")
	}
}
