package experiment

import (
	"fmt"

	"mcastsim/internal/collective"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/updown"
)

// Collectives asks the paper's question one level up (§1 motivates
// multicast via barrier/reduction/broadcast): how much does the choice of
// multicast support change full collective operations? Broadcast uses the
// scheme directly; barrier and all-reduce add the combining-gather phase,
// which is scheme-independent and therefore dilutes the differences — an
// Amdahl effect worth seeing quantified.
func Collectives(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ops := []struct {
		label string
		run   func(rt *updown.Routing, c collective.Config) (collective.Result, error)
	}{
		{"broadcast", collective.Broadcast},
		{"barrier", collective.Barrier},
		{"allreduce-256f", func(rt *updown.Routing, c collective.Config) (collective.Result, error) {
			c.Flits = 256
			return collective.AllReduce(rt, c)
		}},
	}
	tab := &metrics.Table{
		Title:  "Collectives built on each multicast scheme (32 nodes)",
		XLabel: "operation (1=broadcast 2=barrier 3=allreduce)",
		YLabel: "mean completion latency (cycles)",
	}
	// One cell per (scheme, operation, topology). The seed is salted by
	// topology index alone — the old stride-1 additive derivation made
	// adjacent topologies' arbitration streams overlap outright.
	schemes := compared()
	res, err := grid(cfg, len(schemes), len(ops), func(int, int) int { return len(rts) },
		func(si, oi, ti int, _ *cellCtx) (float64, error) {
			r, err := ops[oi].run(rts[ti], collective.Config{
				Scheme: schemes[si], Params: cfg.Params, Root: 0,
				Flits: cfg.MsgFlits, Seed: rng.Mix(cfg.Seed, saltColl, uint64(ti)),
			})
			if err != nil {
				return 0, fmt.Errorf("coll/%s/%s/topo%03d: %w", schemes[si].Name(), ops[oi].label, ti, err)
			}
			return float64(r.Latency), nil
		})
	if err != nil {
		return nil, err
	}
	for si, sch := range schemes {
		s := metrics.Series{Label: sch.Name()}
		for oi, op := range ops {
			var sum float64
			for _, lat := range res[si][oi] {
				sum += lat
			}
			s.X = append(s.X, float64(oi+1))
			s.Y = append(s.Y, sum/float64(len(rts)))
			s.Note = append(s.Note, op.label)
		}
		tab.Series = append(tab.Series, s)
	}
	return []*metrics.Table{tab}, nil
}
