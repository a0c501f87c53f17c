// Package experiment reproduces the paper's evaluation (§4): one runner
// per figure, each returning renderable metrics.Tables. Every experiment
// varies exactly one parameter from the default system (32 nodes, eight
// 8-port switches, R=1, 128-flit packets, single-packet messages) and
// averages over a family of random irregular topologies, as the paper
// does. DESIGN.md §4 maps experiment IDs to paper artifacts.
package experiment

import (
	"fmt"

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
)

// Config scales an experiment run. Full() reproduces the paper's scale;
// Quick() is sized for tests and benchmarks.
type Config struct {
	Seed uint64
	// Workers bounds the parallel fan-out of independent simulation cells
	// (one traffic.Run invocation each); 0 means one worker per CPU
	// (runtime.GOMAXPROCS). Cell seeds are pure functions
	// of the cell's indices, so tables are byte-identical for every
	// worker count.
	Workers int
	// Topologies is the family size for single-multicast experiments;
	// LoadTopologies for the (far costlier) load experiments.
	Topologies     int
	LoadTopologies int
	// Probes is the number of random multicasts per topology.
	Probes int
	// Degree is the multicast fan-out for single-multicast experiments.
	Degree int
	// MsgFlits is the default payload length.
	MsgFlits int
	// Open-loop load windows (cycles) and the swept effective loads.
	Warmup  event.Time
	Measure event.Time
	Drain   event.Time
	Loads   []float64
	// LoadDegrees are the fan-outs for the load experiments (paper: 8, 16).
	LoadDegrees []int

	TopoCfg topology.Config
	Params  sim.Params

	// SimulateL opts the scale sweep's L tier (>=1024 switches, >=100k
	// hosts) into flit-level simulation: one short probe per cell instead
	// of the tier's plan+encode-only default. Off by default — an L-tier
	// network is minutes of assembly plus millions of events per probe —
	// and surfaced as -sim-l on the CLI; CI smokes it at reduced scale.
	SimulateL bool
	// Tiers restricts the scale sweep to the named size tiers (case-
	// insensitive; e.g. []string{"XL"}). Empty selects the default grid —
	// S, M and L. The XL tier (>=10k switches, >=1M hosts) is always
	// opt-in: one XL routing holds 7.5–20.9 MB of run-coded reachability,
	// and the whole XL grid with SimulateL peaks at ~0.86 GB.
	// Skipped cases keep their grid indices, so filtering never moves a
	// surviving cell's seeds. Surfaced as -tiers on the CLI.
	Tiers []string
	// Obs, when non-nil, collects per-cell telemetry bundles (see
	// internal/obs): every simulation cell records link/NI/engine time
	// series at the sink's cadence. Nil (the default) disables
	// observability entirely — no probe fires anywhere in the simulator.
	Obs *ObsSink
	// Checkpoint, when non-nil, journals every completed cell, with its
	// telemetry bundle when Obs is set, so a killed run can resume
	// (-checkpoint/-resume on the CLI; see OpenCheckpointer, which
	// refuses a journal stamped for another run). Resumed tables and
	// telemetry are byte-identical to uninterrupted ones.
	Checkpoint *Checkpointer
	// Progress, when non-nil, receives a tick after every completed cell:
	// cells finished so far and the grid size of the current runCells
	// invocation (resumed cells tick too — they complete instantly).
	// Called from worker goroutines; must be safe for concurrent use.
	// Progress never affects results, only reporting.
	Progress func(done, total int)
}

// Full returns the paper-scale configuration (10 topologies, >=1M-cycle
// load runs with a 100k cold start).
func Full() Config {
	return Config{
		Seed:           1998,
		Topologies:     10,
		LoadTopologies: 5,
		Probes:         30,
		Degree:         16,
		MsgFlits:       128,
		Warmup:         100_000,
		Measure:        900_000,
		Drain:          100_000,
		Loads:          []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
		LoadDegrees:    []int{8, 16},
		TopoCfg:        topology.DefaultConfig(),
		Params:         sim.DefaultParams(),
	}
}

// Quick returns a scaled-down configuration with the same structure,
// suitable for go test / go bench; trends survive the scaling, absolute
// noise is higher.
func Quick() Config {
	cfg := Full()
	cfg.Topologies = 3
	cfg.LoadTopologies = 2
	cfg.Probes = 8
	cfg.Warmup = 10_000
	cfg.Measure = 60_000
	cfg.Drain = 40_000
	cfg.Loads = []float64{0.1, 0.3, 0.5, 0.7}
	return cfg
}

// compared returns the three schemes the paper's figures compare.
func compared() []mcast.Scheme {
	return []mcast.Scheme{kbinomial.New(), treeworm.New(), pathworm.New()}
}

// family generates and routes the experiment's topology family.
func family(cfg topology.Config, count int, seed uint64) ([]*updown.Routing, error) {
	topos, err := topology.GenerateFamily(cfg, count, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*updown.Routing, len(topos))
	for i, t := range topos {
		rt, err := updown.New(t)
		if err != nil {
			return nil, fmt.Errorf("experiment: topology %d: %w", i, err)
		}
		out[i] = rt
	}
	return out, nil
}

// singleMean measures the mean isolated-multicast latency of sch over a
// routed family, one parallel cell per topology. The cell seed depends
// only on the topology index: every scheme (and every sweep point that
// shares the family) measures the same multicast draws, the paired
// design that keeps scheme comparisons low-variance. label names the
// sweep point for obs bundles; it must be unique within the experiment.
func singleMean(cfg Config, label string, rts []*updown.Routing, sch mcast.Scheme, p sim.Params, degree, flits int) (float64, error) {
	res, err := runCells(cfg, len(rts), func(i int, cc *cellCtx) ([]float64, error) {
		rec := cc.recorder(fmt.Sprintf("%s/%s/topo%03d", label, sch.Name(), i))
		r, err := traffic.Run(rts[i], traffic.Workload{
			Scheme: sch, Params: p, Degree: degree, MsgFlits: flits,
			Seed: rng.Mix(cfg.Seed, saltSingle, uint64(i)),
		}, traffic.WithProbes(cfg.Probes), traffic.WithObs(rec))
		if err != nil {
			return nil, err
		}
		return r.Latencies, nil
	})
	if err != nil {
		return 0, err
	}
	var all []float64
	for _, lats := range res {
		all = append(all, lats...)
	}
	return metrics.Mean(all), nil
}

// sweepSingle runs a single-multicast sweep: for each x value, build builds
// the per-point (family, params, degree, flits) and the mean latency per
// scheme becomes one curve point. The sweep flattens into one cell per
// (x, scheme, topology) triple so the pool stays busy across the whole
// grid, then aggregates in grid order.
func sweepSingle(cfg Config, title, xLabel string, xs []float64,
	build func(x float64) ([]*updown.Routing, sim.Params, int, int, error)) (*metrics.Table, error) {
	tab := &metrics.Table{Title: title, XLabel: xLabel, YLabel: "mean single multicast latency (cycles)"}
	schemes := compared()

	type point struct {
		rts    []*updown.Routing
		p      sim.Params
		degree int
		flits  int
	}
	pts := make([]point, len(xs))
	for xi, x := range xs {
		rts, p, degree, flits, err := build(x)
		if err != nil {
			return nil, err
		}
		pts[xi] = point{rts, p, degree, flits}
	}

	type key struct{ xi, si, ti int }
	var keys []key
	for xi := range xs {
		for si := range schemes {
			for ti := range pts[xi].rts {
				keys = append(keys, key{xi, si, ti})
			}
		}
	}
	res, err := runCells(cfg, len(keys), func(i int, cc *cellCtx) ([]float64, error) {
		k := keys[i]
		pt := pts[k.xi]
		rec := cc.recorder(fmt.Sprintf("%s/%s=%v/%s/topo%03d",
			title, xLabel, xs[k.xi], schemes[k.si].Name(), k.ti))
		r, err := traffic.Run(pt.rts[k.ti], traffic.Workload{
			Scheme: schemes[k.si], Params: pt.p, Degree: pt.degree, MsgFlits: pt.flits,
			Seed: rng.Mix(cfg.Seed, saltSingle, uint64(k.ti)),
		}, traffic.WithProbes(cfg.Probes), traffic.WithObs(rec))
		if err != nil {
			return nil, fmt.Errorf("%s at %s=%v: %w", schemes[k.si].Name(), xLabel, xs[k.xi], err)
		}
		return r.Latencies, nil
	})
	if err != nil {
		return nil, err
	}

	cells := make(map[key][]float64, len(keys))
	for i, k := range keys {
		cells[k] = res[i]
	}
	for si, sch := range schemes {
		s := metrics.Series{Label: sch.Name()}
		for xi, x := range xs {
			var all []float64
			for ti := range pts[xi].rts {
				all = append(all, cells[key{xi, si, ti}]...)
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, metrics.Mean(all))
		}
		tab.Series = append(tab.Series, s)
	}
	return tab, nil
}

// Fig6EffectOfR reproduces Figure 6: single-multicast latency as the
// host/NI overhead ratio R varies (o_ni = o_h / R).
func Fig6EffectOfR(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tab, err := sweepSingle(cfg, "Fig 6: effect of R = o_h/o_ni (single multicast)", "R",
		[]float64{0.5, 1, 2, 4},
		func(x float64) ([]*updown.Routing, sim.Params, int, int, error) {
			return rts, cfg.Params.WithR(x), cfg.Degree, cfg.MsgFlits, nil
		})
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{tab}, nil
}

// Fig7EffectOfSwitches reproduces Figure 7: single-multicast latency as the
// switch count grows at fixed system size.
func Fig7EffectOfSwitches(cfg Config) ([]*metrics.Table, error) {
	tab, err := sweepSingle(cfg, "Fig 7: effect of number of switches (single multicast)", "switches",
		[]float64{8, 16, 32},
		func(x float64) ([]*updown.Routing, sim.Params, int, int, error) {
			tc := cfg.TopoCfg
			tc.Switches = int(x)
			rts, err := family(tc, cfg.Topologies, rng.Mix(cfg.Seed, saltFamily, uint64(x)))
			return rts, cfg.Params, cfg.Degree, cfg.MsgFlits, err
		})
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{tab}, nil
}

// Fig8EffectOfMessageLength reproduces Figure 8: single-multicast latency
// as the message grows past the 128-flit packet size.
func Fig8EffectOfMessageLength(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tab, err := sweepSingle(cfg, "Fig 8: effect of message length (single multicast)", "message flits",
		[]float64{128, 256, 512, 1024},
		func(x float64) ([]*updown.Routing, sim.Params, int, int, error) {
			return rts, cfg.Params, cfg.Degree, int(x), nil
		})
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{tab}, nil
}

// loadPanels builds one table per (variant, degree), each with one curve
// per scheme. build maps a variant value to (family, params, flits).
// Every (variant, degree, scheme) curve joins one lockstep sweep, so each
// load point fans out across curves x topology family on the worker pool
// while every curve keeps its own sequential saturation early-exit.
func loadPanels(cfg Config, title string, variants []float64, variantName string,
	build func(v float64) ([]*updown.Routing, sim.Params, int, error)) ([]*metrics.Table, error) {
	var out []*metrics.Table
	var specs []loadCurveSpec
	for _, v := range variants {
		rts, p, flits, err := build(v)
		if err != nil {
			return nil, err
		}
		for _, degree := range cfg.LoadDegrees {
			out = append(out, &metrics.Table{
				Title:  fmt.Sprintf("%s [%s=%v, %d-way]", title, variantName, v, degree),
				XLabel: "effective applied load",
				YLabel: "mean multicast latency (cycles)",
			})
			for _, sch := range compared() {
				specs = append(specs, loadCurveSpec{
					Label:  sch.Name(),
					ErrCtx: fmt.Sprintf(" %s=%v %d-way", variantName, v, degree),
					Scheme: sch, Rts: rts, Params: p, Degree: degree, Flits: flits,
				})
			}
		}
	}
	series, err := runLoadCurves(cfg, specs)
	if err != nil {
		return nil, err
	}
	perPanel := len(compared())
	for i, s := range series {
		tab := out[i/perPanel]
		tab.Series = append(tab.Series, s)
	}
	return out, nil
}

// Fig9LoadVsR reproduces Figure 9: latency under increasing multicast load
// for R in {0.5, 1, 4}, at 8- and 16-way degrees.
func Fig9LoadVsR(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return loadPanels(cfg, "Fig 9: load vs latency under R", []float64{0.5, 1, 4}, "R",
		func(v float64) ([]*updown.Routing, sim.Params, int, error) {
			return rts, cfg.Params.WithR(v), cfg.MsgFlits, nil
		})
}

// Fig10LoadVsSwitches reproduces Figure 10: latency under load as the
// switch count grows.
func Fig10LoadVsSwitches(cfg Config) ([]*metrics.Table, error) {
	return loadPanels(cfg, "Fig 10: load vs latency under switch count", []float64{8, 16, 32}, "switches",
		func(v float64) ([]*updown.Routing, sim.Params, int, error) {
			tc := cfg.TopoCfg
			tc.Switches = int(v)
			rts, err := family(tc, cfg.LoadTopologies, rng.Mix(cfg.Seed, saltFamily, uint64(v)))
			return rts, cfg.Params, cfg.MsgFlits, err
		})
}

// Fig11LoadVsMessageLength reproduces Figure 11: latency under load for
// longer messages.
func Fig11LoadVsMessageLength(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return loadPanels(cfg, "Fig 11: load vs latency under message length", []float64{128, 512, 1024}, "flits",
		func(v float64) ([]*updown.Routing, sim.Params, int, error) {
			return rts, cfg.Params, int(v), nil
		})
}

// ExtHostOverhead reproduces the §4.2 text experiment on host start-up
// overhead: o_h varies with o_ni pinned at the default.
func ExtHostOverhead(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tab, err := sweepSingle(cfg, "Ext: effect of host overhead o_h (single multicast)", "o_h (cycles)",
		[]float64{50, 100, 200, 400},
		func(x float64) ([]*updown.Routing, sim.Params, int, int, error) {
			p := cfg.Params
			p.OHostSend = event.Time(x)
			p.OHostRecv = event.Time(x)
			return rts, p, cfg.Degree, cfg.MsgFlits, nil
		})
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{tab}, nil
}

// ExtSystemSize reproduces the §4.2 text experiment on system size: nodes
// and switches scale together (4 nodes per 8-port switch).
func ExtSystemSize(cfg Config) ([]*metrics.Table, error) {
	tab, err := sweepSingle(cfg, "Ext: effect of system size (single multicast)", "nodes",
		[]float64{16, 32, 64, 128},
		func(x float64) ([]*updown.Routing, sim.Params, int, int, error) {
			tc := cfg.TopoCfg
			tc.Nodes = int(x)
			tc.Switches = int(x) / 4
			degree := cfg.Degree
			if degree >= tc.Nodes {
				degree = tc.Nodes / 2
			}
			rts, err := family(tc, cfg.Topologies, rng.Mix(cfg.Seed, saltFamily, uint64(x)))
			return rts, cfg.Params, degree, cfg.MsgFlits, err
		})
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{tab}, nil
}

// ExtPacketLength reproduces the §4.2 text experiment on packet length,
// with a fixed 1024-flit message split into varying packet sizes.
func ExtPacketLength(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tab, err := sweepSingle(cfg, "Ext: effect of packet length (single multicast, 1024-flit message)", "packet flits",
		[]float64{32, 64, 128, 256},
		func(x float64) ([]*updown.Routing, sim.Params, int, int, error) {
			p := cfg.Params
			p.PacketFlits = int(x)
			return rts, p, cfg.Degree, 1024, nil
		})
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{tab}, nil
}

// BaselineComparison extends Figure 6's default point with the software
// binomial baseline (paper §3.1) for reference.
func BaselineComparison(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{
		Title:  "Baseline: all four schemes at default parameters",
		XLabel: "multicast degree",
		YLabel: "mean single multicast latency (cycles)",
	}
	schemes := append([]mcast.Scheme{binomial.New()}, compared()...)
	for _, sch := range schemes {
		s := metrics.Series{Label: sch.Name()}
		for _, degree := range []float64{4, 8, 16, 31} {
			mean, err := singleMean(cfg, fmt.Sprintf("baseline/d=%d", int(degree)), rts, sch, cfg.Params, int(degree), cfg.MsgFlits)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, degree)
			s.Y = append(s.Y, mean)
		}
		tab.Series = append(tab.Series, s)
	}
	return []*metrics.Table{tab}, nil
}
