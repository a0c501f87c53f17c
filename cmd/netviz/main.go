// Command netviz inspects a topology: Graphviz DOT export and an up*/down*
// routing report (BFS levels, link orientations, per-port reachability
// strings — the switch state of the paper's §3.2.3).
//
// Usage:
//
//	topogen -seed 7 | netviz -dot > net.dot
//	netviz -in net.topo -routing
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "netviz:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("netviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("in", "-", "topology file in topogen text format ('-' = stdin)")
		dot     = fs.Bool("dot", false, "emit Graphviz DOT")
		routing = fs.Bool("routing", false, "emit the up*/down* routing report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*dot && !*routing {
		*dot = true
	}

	r := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	topo, err := topology.ReadText(r)
	if err != nil {
		return err
	}
	if *dot {
		if err := topology.WriteDOT(stdout, topo); err != nil {
			return err
		}
	}
	if *routing {
		rt, err := updown.New(topo)
		if err != nil {
			return err
		}
		report(stdout, topo, rt)
	}
	return nil
}

func report(w io.Writer, topo *topology.Topology, rt *updown.Routing) {
	fmt.Fprintf(w, "up*/down* routing report: %d switches, %d nodes, root = switch %d\n",
		topo.NumSwitches, topo.NumNodes, rt.Root)
	for s := 0; s < topo.NumSwitches; s++ {
		sw := topology.SwitchID(s)
		fmt.Fprintf(w, "switch %d (level %d", s, rt.Level[s])
		if rt.Parent[s] >= 0 {
			fmt.Fprintf(w, ", parent %d", rt.Parent[s])
		}
		fmt.Fprintln(w, ")")
		for p := 0; p < topo.PortsPerSwitch; p++ {
			e := topo.Conn[s][p]
			switch e.Kind {
			case topology.ToSwitch:
				fmt.Fprintf(w, "  port %d -> switch %d [%s]", p, e.Switch, rt.Dirs[s][p])
				if rt.Dirs[s][p] == updown.DirDown {
					fmt.Fprintf(w, " reach=%s", rt.DownReach(sw, p))
				}
				fmt.Fprintln(w)
			case topology.ToNode:
				fmt.Fprintf(w, "  port %d -> node %d\n", p, e.Node)
			}
		}
		fmt.Fprintf(w, "  covers %d/%d nodes without climbing\n", rt.Cover[sw].Count(), topo.NumNodes)
	}
}
