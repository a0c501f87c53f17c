// Customtopo: reproduce the paper's Figure 1 system by hand — an explicit
// irregular 8-switch wiring — then inspect its up*/down* state (Figure
// 1(c)) and multicast across it. Shows how to drive the library with your
// own topology instead of the random generator.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"mcastsim/internal/core"
	"mcastsim/internal/topology"
)

func main() {
	// The Figure 1 shape: 8 switches wired irregularly, two nodes on each
	// of four switches (8 processing elements total).
	links := [][4]int{
		{0, 0, 1, 0}, {0, 1, 2, 0}, {1, 1, 3, 0}, {2, 1, 3, 1}, {2, 2, 4, 0},
		{3, 2, 5, 0}, {4, 1, 5, 1}, {4, 2, 6, 0}, {5, 2, 7, 0}, {6, 1, 7, 1},
	}
	nodes := [][2]int{
		{0, 6}, {0, 7}, // nodes 0,1 on switch 0
		{3, 6}, {3, 7}, // nodes 2,3 on switch 3
		{5, 6}, {5, 7}, // nodes 4,5 on switch 5
		{6, 6}, {6, 7}, // nodes 6,7 on switch 6
	}
	topo, err := topology.Build(8, 8, links, nodes)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.SystemFromTopology(topo, core.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Figure 1(c): the BFS spanning tree and link orientations.
	rt := sys.Routing
	fmt.Printf("BFS spanning tree rooted at switch %d:\n", rt.Root)
	for s := 0; s < topo.NumSwitches; s++ {
		parent := "-"
		if rt.Parent[s] >= 0 {
			parent = fmt.Sprint(rt.Parent[s])
		}
		fmt.Printf("  switch %d: level %d, parent %s, down-covers %d/%d nodes\n",
			s, rt.Level[s], parent, rt.Cover[s].Count(), topo.NumNodes)
	}

	// The bit-string reachability state of the root switch (§3.2.3).
	fmt.Println("\nreachability strings at the root's down ports:")
	for _, dl := range rt.DownLinks(rt.Root) {
		fmt.Printf("  port %d -> switch %d: %s\n",
			dl.Port, topo.Conn[rt.Root][dl.Port].Switch, dl.Reach)
	}

	// Multicast node 0 -> everyone else under each scheme.
	var dests []topology.NodeID
	for n := 1; n < topo.NumNodes; n++ {
		dests = append(dests, topology.NodeID(n))
	}
	fmt.Println("\nbroadcast from node 0 (7 destinations, 128-flit message):")
	results, err := sys.Compare(0, dests, 128)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		var per []string
		for d := 1; d < topo.NumNodes; d++ {
			per = append(per, fmt.Sprintf("n%d@%d", d, r.PerDest[topology.NodeID(d)]))
		}
		fmt.Printf("  %-14s %5d cycles  (%s)\n", r.Scheme, r.Latency, strings.Join(per, " "))
	}

	// DOT rendering of the wiring for the curious.
	fmt.Println("\nGraphviz DOT on stderr (pipe 2> fig1.dot):")
	if err := topology.WriteDOT(os.Stderr, topo); err != nil {
		log.Fatal(err)
	}
}
