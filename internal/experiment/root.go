package experiment

import (
	"fmt"

	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/metrics"
	"mcastsim/internal/updown"
)

// RootSelection measures a known up*/down* lever the paper holds fixed:
// where the spanning-tree root sits. Autonet's UID-based agreement (our
// deterministic switch 0) can land the root at the graph's edge, deepening
// the tree and lengthening tree-worm climbs; rooting at a graph center
// shortens them. The experiment compares tree-worm latency under both
// roots, isolated and under load.
func RootSelection(cfg Config) ([]*metrics.Table, error) {
	variants := []struct {
		label string
		opts  updown.Options
	}{
		{"default root (lowest ID)", updown.Options{Root: -1}},
		{"center root", updown.Options{Root: -1, CenterRoot: true}},
	}
	iso := make([][]*updown.Routing, len(variants))
	specs := make([]loadCurveSpec, len(variants))
	for i, v := range variants {
		rts, err := familyWith(cfg.TopoCfg, cfg.Topologies, cfg.Seed, v.opts)
		if err != nil {
			return nil, err
		}
		loadRts, err := familyWith(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed, v.opts)
		if err != nil {
			return nil, err
		}
		iso[i] = rts
		specs[i] = loadCurveSpec{
			Label: v.label, Cell: "load/" + v.label + " (root selection)",
			Scheme: treeworm.New(), Rts: loadRts, Params: cfg.Params,
			Degree: cfg.LoadDegrees[0], Flits: cfg.MsgFlits,
		}
	}

	degrees := []float64{8, 16, 31}
	ys, err := singleMeans(cfg, len(variants), len(degrees), func(vi, di int) single {
		d := int(degrees[di])
		return single{fmt.Sprintf("root/%s/d=%d", variants[vi].label, d), iso[vi], treeworm.New(), cfg.Params, d, cfg.MsgFlits}
	})
	if err != nil {
		return nil, err
	}
	isoTab := &metrics.Table{
		Title:  "Root selection: isolated tree-worm multicast",
		XLabel: "multicast degree",
		YLabel: singleYLabel,
	}
	for vi, v := range variants {
		isoTab.Series = append(isoTab.Series, metrics.Series{Label: v.label, X: degrees, Y: ys[vi]})
	}

	series, err := runLoadCurves(cfg, specs)
	if err != nil {
		return nil, err
	}
	load := &metrics.Table{
		Title:  fmt.Sprintf("Root selection: tree worms under %d-way load", cfg.LoadDegrees[0]),
		XLabel: "effective applied load",
		YLabel: "mean multicast latency (cycles)",
		Series: series,
	}
	return []*metrics.Table{isoTab, load}, nil
}
