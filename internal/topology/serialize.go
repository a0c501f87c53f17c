package topology

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteText serializes t in a line-oriented text format:
//
//	topology <switches> <ports> <nodes>
//	link <sA> <pA> <sB> <pB>
//	node <id> <switch> <port>
//
// Comment lines start with '#'; blank lines are ignored. The format is the
// interchange between cmd/topogen and the simulator and is stable. A
// topology wider than MaxPortsPerSwitch, which ReadText refuses, is
// refused before anything is written.
func WriteText(w io.Writer, t *Topology) error {
	if t.PortsPerSwitch > MaxPortsPerSwitch {
		return fmt.Errorf("topology: %d ports per switch, more than the %d a topology file may declare", t.PortsPerSwitch, MaxPortsPerSwitch)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "topology %d %d %d\n", t.NumSwitches, t.PortsPerSwitch, t.NumNodes)
	for _, l := range t.Links {
		fmt.Fprintf(bw, "link %d %d %d %d\n", l.A, l.APort, l.B, l.BPort)
	}
	for n := 0; n < t.NumNodes; n++ {
		fmt.Fprintf(bw, "node %d %d %d\n", n, t.NodeSwitch[n], t.NodePort[n])
	}
	return bw.Flush()
}

// ReadText parses the format written by WriteText. The header's counts
// are claims about the lines that follow, so nothing is sized from them
// until the lines back them: every node needs its own node line, and S
// switches need at least S-1 links to be connected. The port count sizes
// every switch's port table, so it is capped at MaxPortsPerSwitch. A
// hostile header therefore fails with an error instead of a huge
// allocation.
func ReadText(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	type nodeLine struct{ lineNo, id, sw, port int }
	var (
		haveHeader          bool
		switches, ports, nn int
		links               [][4]int
		nodeLines           []nodeLine
		lineNo              int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(msg string) error {
			return fmt.Errorf("topology text line %d: %s: %q", lineNo, msg, line)
		}
		switch fields[0] {
		case "topology":
			if haveHeader {
				return nil, fail("duplicate header")
			}
			if len(fields) != 4 {
				return nil, fail("want 'topology S P N'")
			}
			if _, err := fmt.Sscanf(line, "topology %d %d %d", &switches, &ports, &nn); err != nil {
				return nil, fail(err.Error())
			}
			if switches < 0 || ports < 0 || nn < 0 {
				return nil, fail("negative count")
			}
			if ports > MaxPortsPerSwitch {
				return nil, fail(fmt.Sprintf("more than %d ports per switch", MaxPortsPerSwitch))
			}
			haveHeader = true
		case "link":
			if !haveHeader {
				return nil, fail("link before header")
			}
			var l [4]int
			if _, err := fmt.Sscanf(line, "link %d %d %d %d", &l[0], &l[1], &l[2], &l[3]); err != nil {
				return nil, fail(err.Error())
			}
			links = append(links, l)
		case "node":
			if !haveHeader {
				return nil, fail("node before header")
			}
			var id, s, p int
			if _, err := fmt.Sscanf(line, "node %d %d %d", &id, &s, &p); err != nil {
				return nil, fail(err.Error())
			}
			if id < 0 || id >= nn {
				return nil, fail("node id out of range")
			}
			nodeLines = append(nodeLines, nodeLine{lineNo, id, s, p})
		default:
			return nil, fail("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !haveHeader {
		return nil, fmt.Errorf("topology text: missing header")
	}
	if nn > len(nodeLines) {
		return nil, fmt.Errorf("topology text: header declares %d nodes, input has %d node lines", nn, len(nodeLines))
	}
	if switches > len(links)+1 {
		return nil, fmt.Errorf("topology text: header declares %d switches, %d links cannot connect more than %d", switches, len(links), len(links)+1)
	}
	// With ids in [0, nn) and at least nn lines, a table with no
	// duplicate has every node.
	nodes := make([][2]int, nn)
	seen := make([]bool, nn)
	for _, nl := range nodeLines {
		if seen[nl.id] {
			return nil, fmt.Errorf("topology text line %d: duplicate node id %d", nl.lineNo, nl.id)
		}
		seen[nl.id] = true
		nodes[nl.id] = [2]int{nl.sw, nl.port}
	}
	return Build(switches, ports, links, nodes)
}

// WriteDOT emits a Graphviz rendering of the switch graph, with nodes as
// small boxes hanging off their switches — the shape of the paper's
// Figure 1(a).
func WriteDOT(w io.Writer, t *Topology) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph irregular {")
	fmt.Fprintln(bw, "  layout=neato; overlap=false; splines=true;")
	for s := 0; s < t.NumSwitches; s++ {
		fmt.Fprintf(bw, "  sw%d [shape=circle,label=\"S%d\",style=filled,fillcolor=lightgray];\n", s, s)
	}
	for n := 0; n < t.NumNodes; n++ {
		fmt.Fprintf(bw, "  h%d [shape=box,fontsize=9,label=\"h%d\"];\n", n, n)
		fmt.Fprintf(bw, "  sw%d -- h%d [len=0.6];\n", t.NodeSwitch[n], n)
	}
	for _, l := range t.Links {
		fmt.Fprintf(bw, "  sw%d -- sw%d [penwidth=1.5];\n", l.A, l.B)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
