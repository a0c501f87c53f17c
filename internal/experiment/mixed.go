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
	res, err := grid(cfg, len(schemes), len(bgs), func(int, int) int { return len(rts) },
		func(si, bi, ti int, cc *cellCtx) ([]float64, error) {
			label := fmt.Sprintf("mixed/%s/bg=%v/topo%03d", schemes[si].Name(), bgs[bi], ti)
			r, err := traffic.Run(rts[ti], traffic.Workload{
				Scheme: schemes[si], Params: cfg.Params, Degree: 16, MsgFlits: cfg.MsgFlits,
				Seed: rng.Mix(cfg.Seed, saltMixed, uint64(ti)),
			}, traffic.WithMixed(traffic.MixedSpec{
				BackgroundLoad: bgs[bi], BackgroundFlits: cfg.MsgFlits,
				Probes: cfg.Probes, ProbeGap: 5_000, Warmup: cfg.Warmup,
			}), traffic.WithObs(cc.recorder(label)))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			return r.Latencies, nil
		})
	if err != nil {
		return nil, err
	}
	for si, sch := range schemes {
		s := metrics.Series{Label: sch.Name(), X: bgs}
		for _, lats := range res[si] {
			s.Y = append(s.Y, pooledMean(lats))
		}
		tab.Series = append(tab.Series, s)
	}
	return []*metrics.Table{tab}, nil
}
