package experiment

import (
	"fmt"

	"mcastsim/internal/metrics"
	"mcastsim/internal/updown"
)

// RoutingVariant compares the paper's Autonet-style BFS up*/down* substrate
// against the depth-first-tree variant from the routing literature, for
// all three schemes, isolated and under load. The multicast schemes are
// routing-agnostic (they consume the same reachability/legality API), so
// this shows how much of each scheme's behavior is owed to the substrate.
func RoutingVariant(cfg Config) ([]*metrics.Table, error) {
	variants := []struct {
		label string
		tree  updown.TreePolicy
	}{
		{"BFS tree (Autonet)", updown.TreeBFS},
		{"DFS tree", updown.TreeDFS},
	}
	iso := make([][]*updown.Routing, len(variants))
	specs := make([]loadCurveSpec, len(variants))
	for i, v := range variants {
		opts := updown.Options{Root: -1, Tree: v.tree}
		rts, err := familyWith(cfg.TopoCfg, cfg.Topologies, cfg.Seed, opts)
		if err != nil {
			return nil, err
		}
		loadRts, err := familyWith(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed, opts)
		if err != nil {
			return nil, err
		}
		iso[i] = rts
		specs[i] = loadCurveSpec{
			Label: v.label, Cell: "load/" + v.label + " (routing substrate)",
			Scheme: compared()[1], Rts: loadRts, Params: cfg.Params,
			Degree: cfg.LoadDegrees[0], Flits: cfg.MsgFlits,
		}
	}

	schemes := compared()
	ys, err := singleMeans(cfg, len(variants), len(schemes), func(vi, si int) single {
		return single{"routing/" + variants[vi].label, iso[vi], schemes[si], cfg.Params, cfg.Degree, cfg.MsgFlits}
	})
	if err != nil {
		return nil, err
	}
	isoTab := &metrics.Table{
		Title:  "Routing substrate: isolated 16-way multicast, BFS vs DFS up*/down*",
		XLabel: "scheme (1=ni 2=tree 3=path)",
		YLabel: singleYLabel,
	}
	for vi, v := range variants {
		s := metrics.Series{Label: v.label, Y: ys[vi]}
		for si, sch := range schemes {
			s.X = append(s.X, float64(si+1))
			s.Note = append(s.Note, sch.Name())
		}
		isoTab.Series = append(isoTab.Series, s)
	}

	series, err := runLoadCurves(cfg, specs)
	if err != nil {
		return nil, err
	}
	load := &metrics.Table{
		Title:  fmt.Sprintf("Routing substrate: tree worms under %d-way load, BFS vs DFS", cfg.LoadDegrees[0]),
		XLabel: "effective applied load",
		YLabel: "mean multicast latency (cycles)",
		Series: series,
	}
	return []*metrics.Table{isoTab, load}, nil
}
