package experiment

import (
	"fmt"
	"math"

	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/traffic"
	"mcastsim/internal/updown"
)

// ArchComparison quantifies the paper's §3.3 qualitative trade-off table
// from our own implementations: wire header cost, per-switch state, worm
// and phase counts for a multicast of the configured degree on the default
// system, averaged over the topology family.
func ArchComparison(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	N := cfg.TopoCfg.Nodes
	S := cfg.TopoCfg.Switches
	P := cfg.TopoCfg.PortsPerSwitch

	// Mean path-worm count and phases for degree-d random sets. (Mix, not
	// multiply: cfg.Seed*31 collapses every run with Seed 0 onto one
	// stream and aliases across multipliers.)
	r := rng.New(rng.Mix(cfg.Seed, saltArch))
	var wormSum, phaseSum, segSum float64
	samples := 0
	for _, rt := range rts {
		for i := 0; i < cfg.Probes; i++ {
			picks := r.Sample(N, cfg.Degree+1)
			src := topology.NodeID(picks[0])
			dests := make([]topology.NodeID, cfg.Degree)
			for j, v := range picks[1:] {
				dests[j] = topology.NodeID(v)
			}
			res, err := pathworm.New().Cover(rt, src, dests)
			if err != nil {
				return nil, err
			}
			wormSum += float64(res.Worms)
			for _, specs := range res.Sends {
				for _, w := range specs {
					segSum += float64(len(w.Path))
				}
			}
			phaseSum += float64(res.Phases)
			samples++
		}
	}
	meanWorms := wormSum / float64(samples)
	meanSegs := segSum / wormSum
	meanPhases := phaseSum / float64(samples)

	// Mean per-switch reachability state for the tree scheme: one N-bit
	// string per down port.
	var downPorts float64
	var switches float64
	for _, rt := range rts {
		for s := 0; s < rt.Topo.NumSwitches; s++ {
			downPorts += float64(len(rt.DownPorts(topology.SwitchID(s))))
			switches++
		}
	}
	stateBits := downPorts / switches * float64(N)

	tab := &metrics.Table{
		Title:  fmt.Sprintf("Arch comparison (§3.3): %d nodes, %d-port switches, %d-way multicast", N, P, cfg.Degree),
		XLabel: "metric",
		YLabel: "per scheme",
	}
	x := []float64{1, 2, 3, 4, 5}
	// Metrics axis: 1=header flits, 2=switch state bits, 3=worms per
	// multicast, 4=communication phases, 5=needs switch replication (0/1).
	tab.Series = []metrics.Series{
		{
			Label: "ni-kbinomial",
			X:     x,
			Y: []float64{
				float64(sim.UnicastHeaderFlits(N, S)),
				0,
				float64(cfg.Degree), // one unicast worm per destination
				0,                   // NI-level forwarding steps, no host phases beyond the first
				0,
			},
		},
		{
			Label: "sw-tree",
			X:     x,
			Y: []float64{
				float64(sim.TreeHeaderFlits(N)),
				stateBits,
				1,
				1,
				1,
			},
		},
		{
			Label: "sw-path",
			X:     x,
			Y: []float64{
				float64(sim.PathHeaderFlits(int(meanSegs+0.5), P, N, S)),
				0,
				meanWorms,
				meanPhases,
				1,
			},
		},
	}
	return []*metrics.Table{tab}, nil
}

// UnicastSaturation reproduces the §4.3 sanity bound: "the maximum unicast
// throughput (assuming no software overheads and no contention for the I/O
// bus) was observed to be less than 0.8 using up*/down* routing". Matching
// the paper's framing, software overheads are zeroed and the I/O bus made
// effectively infinite, so the sweep measures pure network capacity under
// uniform random traffic.
func UnicastSaturation(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	p := cfg.Params
	p.OHostSend, p.OHostRecv, p.ONISend, p.ONIRecv = 0, 0, 0, 0
	p.BusMBps = 1 << 20 // effectively no I/O bus contention
	cfg.Params = p
	tab := &metrics.Table{
		Title:  "Unicast saturation check (up*/down*, uniform traffic)",
		XLabel: "offered load (flits/cycle/node)",
		YLabel: "accepted load / mean latency",
	}
	accepted := metrics.Series{Label: "accepted load"}
	latency := metrics.Series{Label: "mean latency (cycles)"}
	sch := unicastScheme{}
	for _, l := range cfg.Loads {
		l := l
		res, err := runCells(cfg, len(rts), func(i int, cc *cellCtx) (traffic.LoadResult, error) {
			rec := cc.recorder(fmt.Sprintf("unisat/l=%v/topo%03d", l, i))
			r, err := traffic.Run(rts[i], traffic.Workload{
				Scheme: sch, Params: cfg.Params, Degree: 1, MsgFlits: cfg.MsgFlits,
				Seed: rng.Mix(cfg.Seed, saltLoad, uint64(i)),
			}, traffic.WithLoad(traffic.LoadSpec{
				EffectiveLoad: l, Warmup: cfg.Warmup, Measure: cfg.Measure,
				Drain: cfg.Drain,
			}), traffic.WithObs(rec))
			if err != nil {
				return traffic.LoadResult{}, err
			}
			return *r.Load, nil
		})
		if err != nil {
			return nil, err
		}
		var acc, lat []float64
		sat := false
		for _, r := range res {
			acc = append(acc, r.AcceptedLoad)
			if r.Latency.Count > 0 {
				lat = append(lat, r.Latency.Mean)
			}
			if r.Saturated {
				sat = true
			}
		}
		note := ""
		if sat {
			note = "SAT"
		}
		accepted.X = append(accepted.X, l)
		accepted.Y = append(accepted.Y, metrics.Mean(acc))
		accepted.Note = append(accepted.Note, note)
		latency.X = append(latency.X, l)
		// A fully saturated point can complete zero messages; NaN keeps the
		// "SAT" note without plotting a bogus zero latency.
		if len(lat) > 0 {
			latency.Y = append(latency.Y, metrics.Mean(lat))
		} else {
			latency.Y = append(latency.Y, math.NaN())
		}
		latency.Note = append(latency.Note, note)
		if sat {
			break
		}
	}
	tab.Series = []metrics.Series{accepted, latency}
	return []*metrics.Table{tab}, nil
}

// unicastScheme adapts plain unicast sends to the mcast.Scheme interface
// for the saturation check (degree-1 "multicasts").
type unicastScheme struct{}

func (unicastScheme) Name() string { return "unicast" }

func (unicastScheme) Plan(rt *updown.Routing, _ sim.Params, src topology.NodeID, dests []topology.NodeID, _ int) (*sim.Plan, error) {
	specs := make([]sim.WormSpec, len(dests))
	for i, d := range dests {
		specs[i] = sim.WormSpec{Kind: sim.WormUnicast, Dest: d}
	}
	return &sim.Plan{
		Source:    src,
		Dests:     dests,
		HostSends: map[topology.NodeID][]sim.WormSpec{src: specs},
	}, nil
}
