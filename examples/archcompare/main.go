// Archcompare: the paper's §3.3 architectural trade-off, quantified from
// the implementation as the system scales — header bytes on the wire,
// switch state for reachability strings, worms and host-level phases per
// multicast. Run it to see why the paper concludes "support multicast at
// the NI first, then add single-phase hardware multicast in switches".
package main

import (
	"fmt"
	"log"

	"mcastsim/internal/core"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
)

func main() {
	fmt.Println("architectural costs per scheme as the system scales (16-way multicast)")
	fmt.Printf("%-7s %-9s | %-22s | %-22s | %-22s\n", "nodes", "switches",
		"header flits (uni/tree/path)", "switch state bits (tree)", "worms x phases (path)")

	r := rng.New(5)
	for _, scale := range []struct{ nodes, switches int }{
		{16, 4}, {32, 8}, {64, 16}, {128, 32},
	} {
		sys, err := core.BuildSystem(core.Options{
			Nodes: scale.nodes, Switches: scale.switches, PortsPerSwitch: 8,
			Seed: uint64(scale.nodes),
		})
		if err != nil {
			log.Fatal(err)
		}
		// Path worm stats averaged over a few random 16-way sets (capped
		// by the system size at the small end).
		degree := 16
		if degree > scale.nodes-1 {
			degree = scale.nodes - 1
		}
		var worms, phases, segs float64
		const trials = 10
		for i := 0; i < trials; i++ {
			src := topology.NodeID(r.Intn(scale.nodes))
			var dests []topology.NodeID
			for _, v := range r.Sample(scale.nodes-1, degree) {
				if topology.NodeID(v) >= src {
					v++
				}
				dests = append(dests, topology.NodeID(v))
			}
			res, err := pathworm.New().Cover(sys.Routing, src, dests)
			if err != nil {
				log.Fatal(err)
			}
			worms += float64(res.Worms)
			phases += float64(res.Phases)
			for _, specs := range res.Sends {
				for _, w := range specs {
					segs += float64(len(w.Path))
				}
			}
		}
		segs /= worms
		worms /= trials
		phases /= trials

		// Tree switch state: one N-bit string per down port.
		var downPorts, switches float64
		for s := 0; s < sys.Topo.NumSwitches; s++ {
			downPorts += float64(len(sys.Routing.DownLinks(topology.SwitchID(s))))
			switches++
		}
		stateBits := downPorts / switches * float64(scale.nodes)

		fmt.Printf("%-7d %-9d | uni=%d tree=%d path=%.0f       | %6.0f bits/switch      | %.1f worms, %.1f phases\n",
			scale.nodes, scale.switches,
			sim.UnicastHeaderFlits(scale.nodes, scale.switches),
			sim.TreeHeaderFlits(scale.nodes),
			float64(sim.PathHeaderFlits(int(segs+0.5), 8, scale.nodes, scale.switches)),
			stateBits, worms, phases)
	}

	fmt.Println("\ntree headers and switch state grow with system size (the §3.3 cost);")
	fmt.Println("path headers stay system-size independent but worm and phase counts")
	fmt.Println("grow as destinations thin out across switches (Figure 7's driver).")
}
