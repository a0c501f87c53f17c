package experiment

import (
	"fmt"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/traffic"
)

// MixedTraffic measures multicast latency over a unicast background — the
// regime a production network of workstations actually runs in (the
// paper's load experiments use pure multicast traffic; its technical
// report points at mixed traffic as follow-on work). Each curve sweeps
// the background intensity for one scheme.
func MixedTraffic(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{
		Title:  "Multicast latency over unicast background traffic (16-way)",
		XLabel: "background unicast load (flits/cycle/node)",
		YLabel: "mean multicast latency (cycles)",
	}
	// One cell per (scheme, background level, topology); the seed is
	// salted by topology index only, pairing every scheme and background
	// level on the same probe draws.
	schemes := compared()
	bgs := []float64{0, 0.05, 0.1, 0.15}
	type key struct{ si, bi, ti int }
	var keys []key
	for si := range schemes {
		for bi := range bgs {
			for ti := range rts {
				keys = append(keys, key{si, bi, ti})
			}
		}
	}
	res, err := runCells(cfg, len(keys), func(i int, _ cellCtx) ([]float64, error) {
		k := keys[i]
		rec, commit := cfg.cellObs(fmt.Sprintf("mixed/%s/bg=%v/topo%03d",
			schemes[k.si].Name(), bgs[k.bi], k.ti))
		r, err := traffic.Run(rts[k.ti], traffic.Workload{
			Scheme: schemes[k.si], Params: cfg.Params, Degree: 16, MsgFlits: cfg.MsgFlits,
			Seed: rng.Mix(cfg.Seed, saltMixed, uint64(k.ti)),
		}, traffic.WithMixed(traffic.MixedSpec{
			BackgroundLoad: bgs[k.bi], BackgroundFlits: cfg.MsgFlits,
			Probes: cfg.Probes, ProbeGap: 5_000, Warmup: cfg.Warmup,
		}), traffic.WithObs(rec))
		if err != nil {
			return nil, err
		}
		commit()
		return r.Latencies, nil
	})
	if err != nil {
		return nil, err
	}
	for si, sch := range schemes {
		s := metrics.Series{Label: sch.Name()}
		for bi, bg := range bgs {
			var all []float64
			for ti := range rts {
				all = append(all, res[(si*len(bgs)+bi)*len(rts)+ti]...)
			}
			s.X = append(s.X, bg)
			s.Y = append(s.Y, metrics.Mean(all))
		}
		tab.Series = append(tab.Series, s)
	}
	return []*metrics.Table{tab}, nil
}
