package topology

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mcastsim/internal/rng"
)

func TestTextRoundTrip(t *testing.T) {
	fam, err := GenerateFamily(DefaultConfig(), 5, 77)
	if err != nil {
		t.Fatal(err)
	}
	for i, topo := range fam {
		var buf bytes.Buffer
		if err := WriteText(&buf, topo); err != nil {
			t.Fatalf("topology %d: WriteText: %v", i, err)
		}
		back, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("topology %d: ReadText: %v", i, err)
		}
		if back.NumSwitches != topo.NumSwitches || back.NumNodes != topo.NumNodes || back.PortsPerSwitch != topo.PortsPerSwitch {
			t.Fatalf("topology %d: shape changed", i)
		}
		for s := 0; s < topo.NumSwitches; s++ {
			for p := 0; p < topo.PortsPerSwitch; p++ {
				if back.Conn[s][p] != topo.Conn[s][p] {
					t.Fatalf("topology %d: switch %d port %d changed: %+v vs %+v",
						i, s, p, topo.Conn[s][p], back.Conn[s][p])
				}
			}
		}
	}
}

// TestReadTextWidestSwitch: the port cap itself is accepted.
func TestReadTextWidestSwitch(t *testing.T) {
	in := fmt.Sprintf("topology 2 %d 1\nlink 0 0 1 %d\nnode 0 1 0\n", MaxPortsPerSwitch, MaxPortsPerSwitch-1)
	topo, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if topo.PortsPerSwitch != MaxPortsPerSwitch {
		t.Fatalf("PortsPerSwitch = %d, want %d", topo.PortsPerSwitch, MaxPortsPerSwitch)
	}
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	in := `# a comment
topology 2 4 1

# link section
link 0 0 1 0
node 0 0 1
`
	topo, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if topo.NumSwitches != 2 || topo.NumNodes != 1 {
		t.Fatal("parse mismatch")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":     "link 0 0 1 0\n",
		"duplicate header":   "topology 2 4 0\ntopology 2 4 0\nlink 0 0 1 0\n",
		"unknown directive":  "topology 2 4 0\nlink 0 0 1 0\nfrob 1\n",
		"node out of range":  "topology 2 4 1\nlink 0 0 1 0\nnode 5 0 1\n",
		"duplicate node":     "topology 2 4 1\nlink 0 0 1 0\nnode 0 0 1\nnode 0 0 2\n",
		"duplicate bad node": "topology 2 4 1\nlink 0 0 1 0\nnode 0 -1 1\nnode 0 0 1\n",
		"missing node":       "topology 2 4 2\nlink 0 0 1 0\nnode 0 0 1\n",
		"malformed link":     "topology 2 4 0\nlink 0 0 1\n",
		"empty input":        "",
		"disconnected graph": "topology 2 4 0\n",
		"negative switches":  "topology -1 4 0\n",
		"negative ports":     "topology 2 -4 0\nlink 0 0 1 0\n",
		"negative nodes":     "topology 1 1 -1\n",
		"too many ports":     "topology 2 257 0\nlink 0 0 1 0\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadTextOversizedHeaderAllocatesLittle feeds headers whose counts
// no line backs, and port counts past MaxPortsPerSwitch: each must be
// rejected before anything is sized from it.
func TestReadTextOversizedHeaderAllocatesLittle(t *testing.T) {
	cases := map[string]string{
		"1e7 nodes, no node line": "topology 2 4 10000000\nlink 0 0 1 0\n",
		"1e8 switches, no link":   "topology 100000000 4 0\n",
		"2^62 ports":              "topology 1 4611686018427387904 0\n",
		"1e6 ports, one link":     "topology 2 1000000 0\nlink 0 0 1 0\n",
	}
	for name, in := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadText(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing, want under 1 MB", name, got)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	topo, err := Generate(DefaultConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, topo); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph irregular {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("DOT output malformed")
	}
	for s := 0; s < topo.NumSwitches; s++ {
		if !strings.Contains(out, "sw0") {
			t.Fatalf("DOT missing switch %d", s)
		}
	}
	if strings.Count(out, " -- ") != len(topo.Links)+topo.NumNodes {
		t.Fatalf("DOT edge count mismatch")
	}
}

// TestWriteTextRefusesWideSwitches: a topology wider than a file may
// declare (here a 514-port fat-tree, which simulates in memory) is
// refused before a byte is written.
func TestWriteTextRefusesWideSwitches(t *testing.T) {
	topo, err := FatTree(FatTreeConfig{Pods: 2, EdgePerPod: 4, AggPerPod: 2, CoreUplinksPerAgg: 2, HostsPerEdge: 512})
	if err != nil {
		t.Fatal(err)
	}
	if topo.PortsPerSwitch <= MaxPortsPerSwitch {
		t.Fatalf("fixture has %d ports per switch, want more than %d", topo.PortsPerSwitch, MaxPortsPerSwitch)
	}
	var out strings.Builder
	if err := WriteText(&out, topo); err == nil {
		t.Fatal("WriteText accepted a topology ReadText refuses")
	}
	if out.Len() != 0 {
		t.Fatalf("refused WriteText wrote %d bytes", out.Len())
	}
}
