// Package mcastsim_test holds the benchmark harness: one benchmark per
// paper figure/table (DESIGN.md §4 maps them), sized so `go test -bench=.`
// regenerates every result's shape in minutes. Paper-scale runs are the
// business of `cmd/mcastsim -full`; these benches fix the workloads and
// report the measured mean multicast latency per scheme as a custom
// metric (cycles/mcast), so regressions in either speed or *simulated
// behavior* are visible.
package mcastsim_test

import (
	"fmt"
	"testing"

	"mcastsim/internal/bitset"
	"mcastsim/internal/collective"
	"mcastsim/internal/event"
	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/binomial"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/traffic"
	"mcastsim/internal/updown"
	"mcastsim/internal/wire"
)

// benchFamily builds a small routed family once per config.
func benchFamily(b *testing.B, cfg topology.Config, count int, seed uint64) []*updown.Routing {
	b.Helper()
	topos, err := topology.GenerateFamily(cfg, count, seed)
	if err != nil {
		b.Fatal(err)
	}
	rts := make([]*updown.Routing, len(topos))
	for i, t := range topos {
		rt, err := updown.New(t)
		if err != nil {
			b.Fatal(err)
		}
		rts[i] = rt
	}
	return rts
}

func schemes() []mcast.Scheme {
	return []mcast.Scheme{kbinomial.New(), treeworm.New(), pathworm.New()}
}

// singleBench measures isolated-multicast latency for one scheme/config
// and reports it as a metric.
func singleBench(b *testing.B, rts []*updown.Routing, sch mcast.Scheme, p sim.Params, degree, flits int) {
	b.Helper()
	var lats []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := rts[i%len(rts)]
		got, err := traffic.Run(rt, traffic.Workload{Scheme: sch, Params: p,
			Degree: degree, MsgFlits: flits, Seed: uint64(i)}, traffic.WithProbes(4))
		if err != nil {
			b.Fatal(err)
		}
		lats = append(lats, got.Latencies...)
	}
	b.ReportMetric(metrics.Mean(lats), "cycles/mcast")
}

// loadBench measures one open-loop load point for one scheme/config.
func loadBench(b *testing.B, rts []*updown.Routing, sch mcast.Scheme, p sim.Params, degree, flits int, load float64) {
	b.Helper()
	var lats []float64
	sat := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := rts[i%len(rts)]
		r, err := traffic.Run(rt, traffic.Workload{Scheme: sch, Params: p,
			Degree: degree, MsgFlits: flits, Seed: uint64(i) * 13},
			traffic.WithLoad(traffic.LoadSpec{EffectiveLoad: load,
				Warmup: 5_000, Measure: 30_000, Drain: 25_000}))
		if err != nil {
			b.Fatal(err)
		}
		res := r.Load
		if res.Saturated {
			sat++
		}
		if res.Latency.Count > 0 {
			lats = append(lats, res.Latency.Mean)
		}
	}
	b.ReportMetric(metrics.Mean(lats), "cycles/mcast")
	b.ReportMetric(float64(sat)/float64(b.N), "sat-fraction")
}

// --- Figure 6: single multicast vs R = o_h/o_ni ---

func BenchmarkFig6_R(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 3, 1998)
	for _, r := range []float64{0.5, 1, 2, 4} {
		p := sim.DefaultParams().WithR(r)
		for _, sch := range schemes() {
			b.Run(fmt.Sprintf("R=%.1f/%s", r, sch.Name()), func(b *testing.B) {
				singleBench(b, rts, sch, p, 16, 128)
			})
		}
	}
}

// --- Figure 7: single multicast vs switch count ---

func BenchmarkFig7_Switches(b *testing.B) {
	for _, sw := range []int{8, 16, 32} {
		cfg := topology.DefaultConfig()
		cfg.Switches = sw
		rts := benchFamily(b, cfg, 3, 1998+uint64(sw))
		for _, sch := range schemes() {
			b.Run(fmt.Sprintf("switches=%d/%s", sw, sch.Name()), func(b *testing.B) {
				singleBench(b, rts, sch, sim.DefaultParams(), 16, 128)
			})
		}
	}
}

// --- Figure 8: single multicast vs message length ---

func BenchmarkFig8_MessageLength(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 3, 1998)
	for _, flits := range []int{128, 256, 512, 1024} {
		for _, sch := range schemes() {
			b.Run(fmt.Sprintf("flits=%d/%s", flits, sch.Name()), func(b *testing.B) {
				singleBench(b, rts, sch, sim.DefaultParams(), 16, flits)
			})
		}
	}
}

// --- Figure 9: latency under load vs R (8- and 16-way) ---

func BenchmarkFig9_LoadVsR(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 2, 1998)
	for _, r := range []float64{0.5, 1, 4} {
		p := sim.DefaultParams().WithR(r)
		for _, degree := range []int{8, 16} {
			for _, sch := range schemes() {
				b.Run(fmt.Sprintf("R=%.1f/%dway/%s", r, degree, sch.Name()), func(b *testing.B) {
					loadBench(b, rts, sch, p, degree, 128, 0.2)
				})
			}
		}
	}
}

// --- Figure 10: latency under load vs switch count ---

func BenchmarkFig10_LoadVsSwitches(b *testing.B) {
	for _, sw := range []int{8, 16, 32} {
		cfg := topology.DefaultConfig()
		cfg.Switches = sw
		rts := benchFamily(b, cfg, 2, 1998+uint64(sw))
		for _, degree := range []int{8, 16} {
			for _, sch := range schemes() {
				b.Run(fmt.Sprintf("switches=%d/%dway/%s", sw, degree, sch.Name()), func(b *testing.B) {
					loadBench(b, rts, sch, sim.DefaultParams(), degree, 128, 0.2)
				})
			}
		}
	}
}

// --- Figure 11: latency under load vs message length ---

func BenchmarkFig11_LoadVsMessageLength(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 2, 1998)
	for _, flits := range []int{128, 512, 1024} {
		for _, degree := range []int{8, 16} {
			for _, sch := range schemes() {
				b.Run(fmt.Sprintf("flits=%d/%dway/%s", flits, degree, sch.Name()), func(b *testing.B) {
					loadBench(b, rts, sch, sim.DefaultParams(), degree, flits, 0.15)
				})
			}
		}
	}
}

// --- §4.2 text experiments ---

func BenchmarkExtOh_HostOverhead(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 3, 1998)
	for _, oh := range []event.Time{50, 100, 200, 400} {
		p := sim.DefaultParams()
		p.OHostSend, p.OHostRecv = oh, oh
		for _, sch := range schemes() {
			b.Run(fmt.Sprintf("oh=%d/%s", oh, sch.Name()), func(b *testing.B) {
				singleBench(b, rts, sch, p, 16, 128)
			})
		}
	}
}

func BenchmarkExtSize_SystemSize(b *testing.B) {
	for _, nodes := range []int{16, 32, 64, 128} {
		cfg := topology.DefaultConfig()
		cfg.Nodes = nodes
		cfg.Switches = nodes / 4
		rts := benchFamily(b, cfg, 2, 1998+uint64(nodes))
		degree := 16
		if degree >= nodes {
			degree = nodes / 2
		}
		for _, sch := range schemes() {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, sch.Name()), func(b *testing.B) {
				singleBench(b, rts, sch, sim.DefaultParams(), degree, 128)
			})
		}
	}
}

func BenchmarkExtPkt_PacketLength(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 3, 1998)
	for _, pkt := range []int{32, 64, 128, 256} {
		p := sim.DefaultParams()
		p.PacketFlits = pkt
		for _, sch := range schemes() {
			b.Run(fmt.Sprintf("pkt=%d/%s", pkt, sch.Name()), func(b *testing.B) {
				singleBench(b, rts, sch, p, 16, 1024)
			})
		}
	}
}

// --- §4.3 preamble: unicast saturation bound ---

func BenchmarkUnisat_UnicastLoad(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 2, 1998)
	for _, load := range []float64{0.3, 0.5, 0.7} {
		b.Run(fmt.Sprintf("load=%.1f", load), func(b *testing.B) {
			loadBench(b, rts, unicastScheme{}, sim.DefaultParams(), 1, 128, load)
		})
	}
}

// unicastScheme mirrors the experiment package's degree-1 adapter.
type unicastScheme struct{}

func (unicastScheme) Name() string { return "unicast" }

func (unicastScheme) Plan(rt *updown.Routing, _ sim.Params, src topology.NodeID, dests []topology.NodeID, _ int) (*sim.Plan, error) {
	specs := make([]sim.WormSpec, len(dests))
	for i, d := range dests {
		specs[i] = sim.WormSpec{Kind: sim.WormUnicast, Dest: d}
	}
	return &sim.Plan{Source: src, Dests: dests,
		HostSends: map[topology.NodeID][]sim.WormSpec{src: specs}}, nil
}

// --- §3.1 baseline and ablations ---

func BenchmarkBaseline_Binomial(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 3, 1998)
	for _, degree := range []int{4, 8, 16, 31} {
		b.Run(fmt.Sprintf("%dway", degree), func(b *testing.B) {
			singleBench(b, rts, binomial.New(), sim.DefaultParams(), degree, 128)
		})
	}
}

func BenchmarkAblation_TreeEarlyBranch(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 3, 1998)
	for _, early := range []bool{false, true} {
		p := sim.DefaultParams()
		p.EarlyTreeBranch = early
		b.Run(fmt.Sprintf("early=%v", early), func(b *testing.B) {
			singleBench(b, rts, treeworm.New(), p, 16, 128)
		})
	}
}

func BenchmarkAblation_PathVariants(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 3, 1998)
	variants := map[string]mcast.Scheme{
		"lg":     pathworm.New(),
		"greedy": pathworm.Scheme{Greedy: true},
		"serial": pathworm.Scheme{SerialSchedule: true},
	}
	for name, sch := range variants {
		b.Run(name, func(b *testing.B) {
			singleBench(b, rts, sch, sim.DefaultParams(), 16, 128)
		})
	}
}

func BenchmarkAblation_BufferDepth(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 2, 1998)
	for _, buf := range []int{4, 16, 64} {
		p := sim.DefaultParams()
		p.BufferFlits = buf
		b.Run(fmt.Sprintf("buf=%d", buf), func(b *testing.B) {
			loadBench(b, rts, treeworm.New(), p, 8, 128, 0.2)
		})
	}
}

// --- simulator micro-benchmarks ---

// BenchmarkSimCore measures raw simulator throughput: one isolated 16-way
// tree multicast per iteration (thousands of flit events each).
func BenchmarkSimCore_TreeMulticast(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 1, 1)
	r := rng.New(1)
	dests := make([]topology.NodeID, 16)
	for i, v := range r.Sample(31, 16) {
		dests[i] = topology.NodeID(v + 1)
	}
	plan, err := treeworm.New().Plan(rts[0], sim.DefaultParams(), 0, dests, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := sim.New(rts[0], sim.DefaultParams(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.RunSingle(plan, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanners measures plan construction cost per scheme (it sits on
// the load generator's fast path).
func BenchmarkPlanners(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 1, 1)
	r := rng.New(1)
	dests := make([]topology.NodeID, 16)
	for i, v := range r.Sample(31, 16) {
		dests[i] = topology.NodeID(v + 1)
	}
	for _, sch := range append(schemes(), binomial.New()) {
		b.Run(sch.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sch.Plan(rts[0], sim.DefaultParams(), 0, dests, 128); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- wire codec micro-benchmarks ---

func BenchmarkWireCodecs(b *testing.B) {
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		b.Fatal(err)
	}
	z := wire.Sizes{Nodes: topo.NumNodes, Switches: topo.NumSwitches, PortsPerSwitch: topo.PortsPerSwitch}
	set := bitset.FromIndices(topo.NumNodes, []int{1, 5, 9, 13, 17, 21, 25, 29})
	r := rng.New(2)
	picks := r.Sample(topo.NumNodes, 17)
	src := topology.NodeID(picks[0])
	dests := make([]topology.NodeID, 16)
	for i, v := range picks[1:] {
		dests[i] = topology.NodeID(v)
	}
	res, err := pathworm.New().Cover(rt, src, dests)
	if err != nil {
		b.Fatal(err)
	}
	var segs []sim.PathSeg
	for _, specs := range res.Sends {
		for _, w := range specs {
			if len(w.Path) > len(segs) {
				segs = w.Path
			}
		}
	}

	b.Run("tree-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.EncodeTree(z, set); err != nil {
				b.Fatal(err)
			}
		}
	})
	treeHdr, _ := wire.EncodeTree(z, set)
	b.Run("tree-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeTree(z, treeHdr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.EncodePath(topo, segs); err != nil {
				b.Fatal(err)
			}
		}
	})
	pathHdr, _ := wire.EncodePath(topo, segs)
	b.Run("path-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodePath(topo, pathHdr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- collective benchmarks (extension) ---

func BenchmarkCollectives(b *testing.B) {
	rts := benchFamily(b, topology.DefaultConfig(), 1, 1)
	for _, sch := range schemes() {
		b.Run("barrier/"+sch.Name(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := collective.Barrier(rts[0], collective.Config{
					Scheme: sch, Params: sim.DefaultParams(), Root: 0, Flits: 16, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = float64(res.Latency)
			}
			b.ReportMetric(last, "cycles/barrier")
		})
	}
}
