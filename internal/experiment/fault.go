package experiment

import (
	"fmt"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/traffic"
	"mcastsim/internal/updown"
)

// FaultReconfiguration exercises the property the paper's introduction
// claims for irregular networks — resistance to faults via
// reconfiguration. For each topology we fail one random non-bridge link,
// recompute the up*/down* state from scratch (new spanning tree, new
// orientations, new reachability strings — the Autonet procedure), and
// measure every scheme's isolated multicast latency before and after.
// Each scheme rebuilds its plans against the new routing state: the tree
// worm's switch tables, the path worms' stop chains, and the NI tree all
// change; the question is how gracefully latency degrades with one link
// less.
func FaultReconfiguration(cfg Config) ([]*metrics.Table, error) {
	topos, err := topology.GenerateFamily(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Mix rather than multiply: cfg.Seed * 911 collapses every run with
	// Seed 0 onto the same stream (and correlates nearby seeds).
	r := rng.New(rng.Mix(cfg.Seed, 911))

	healthy := make([]*updown.Routing, 0, len(topos))
	degraded := make([]*updown.Routing, 0, len(topos))
	for _, t := range topos {
		rt, err := updown.New(t)
		if err != nil {
			return nil, err
		}
		healthy = append(healthy, rt)
		// Fail a random link; skip bridges (their removal partitions the
		// network, which reconfiguration alone cannot survive).
		var after *topology.Topology
		for _, li := range r.Perm(len(t.Links)) {
			cand, err := t.RemoveLink(li)
			if err == nil {
				after = cand
				break
			}
		}
		if after == nil {
			// Every link is a bridge (a pure tree): degraded == healthy.
			after = t
		}
		rt2, err := updown.New(after)
		if err != nil {
			return nil, err
		}
		degraded = append(degraded, rt2)
	}

	tab := &metrics.Table{
		Title:  "Fault reconfiguration: isolated 16-way multicast before/after one link failure",
		XLabel: "scheme (1=ni 2=tree 3=path)",
		YLabel: "mean single multicast latency (cycles)",
	}
	variants := []struct {
		label string
		rts   []*updown.Routing
	}{
		{"healthy", healthy},
		{"one link failed", degraded},
	}
	// One cell per (variant, scheme, topology); both variants and all
	// schemes share per-topology seeds so before/after compares the same
	// multicasts.
	schemes := compared()
	type key struct{ vi, si, ti int }
	var keys []key
	for vi := range variants {
		for si := range schemes {
			for ti := range variants[vi].rts {
				keys = append(keys, key{vi, si, ti})
			}
		}
	}
	res, err := runCells(cfg, len(keys), func(i int, cc *cellCtx) ([]float64, error) {
		k := keys[i]
		rec := cc.recorder(fmt.Sprintf("fault/%s/%s/topo%03d",
			variants[k.vi].label, schemes[k.si].Name(), k.ti))
		r, err := traffic.Run(variants[k.vi].rts[k.ti], traffic.Workload{
			Scheme: schemes[k.si], Params: cfg.Params, Degree: cfg.Degree,
			MsgFlits: cfg.MsgFlits,
			Seed:     rng.Mix(cfg.Seed, 7919, uint64(k.ti)),
		}, traffic.WithProbes(cfg.Probes), traffic.WithObs(rec))
		if err != nil {
			return nil, err
		}
		return r.Latencies, nil
	})
	if err != nil {
		return nil, err
	}
	ci := 0
	for _, v := range variants {
		s := metrics.Series{Label: v.label}
		for si, sch := range schemes {
			var all []float64
			for range v.rts {
				all = append(all, res[ci]...)
				ci++
			}
			s.X = append(s.X, float64(si+1))
			s.Y = append(s.Y, metrics.Mean(all))
			s.Note = append(s.Note, sch.Name())
		}
		tab.Series = append(tab.Series, s)
	}
	return []*metrics.Table{tab}, nil
}
