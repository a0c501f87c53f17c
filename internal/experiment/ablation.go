package experiment

import (
	"fmt"

	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/metrics"
	"mcastsim/internal/sim"
	"mcastsim/internal/updown"
)

// Ablation experiments quantify the design choices DESIGN.md §9 calls out.

// AblationTreeEarlyBranch compares the paper's climb-then-replicate tree
// worm against the early-branching variant that peels off covered subsets
// while still climbing.
func AblationTreeEarlyBranch(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		label string
		early bool
	}{
		{"climb-then-branch (paper)", false},
		{"early branching", true},
	}
	degrees := []float64{4, 8, 16, 31}
	ys, err := singleMeans(cfg, len(variants), len(degrees), func(vi, di int) single {
		p := cfg.Params
		p.EarlyTreeBranch = variants[vi].early
		d := int(degrees[di])
		return single{fmt.Sprintf("ab-tree/%s/d=%d", variants[vi].label, d), rts, treeworm.New(), p, d, cfg.MsgFlits}
	})
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{
		Title:  "Ablation: tree worm climb-then-branch vs early branching",
		XLabel: "multicast degree",
		YLabel: singleYLabel,
	}
	for vi, v := range variants {
		tab.Series = append(tab.Series, metrics.Series{Label: v.label, X: degrees, Y: ys[vi]})
	}
	return []*metrics.Table{tab}, nil
}

// AblationPathSchedule compares MDP-LG's multi-phase dispatch (covered
// destinations become secondary sources) against the source serially
// emitting every worm — and against the coverage-greedy MDP-G planner.
// The isolated table shows the (perhaps surprising) result that serial
// dispatch is competitive when one multicast owns the network: the
// source's injection pipeline streams worms at wire rate while each relay
// phase pays a full host receive+send. Under load the picture inverts:
// serial dispatch concentrates every worm on the source's injection link
// and its region, which is exactly the contention MDP-LG's dispatch rule
// exists to avoid.
func AblationPathSchedule(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		label  string
		scheme mcast.Scheme
	}{
		{"multi-phase (MDP-LG)", pathworm.New()},
		{"serial from source", pathworm.Scheme{SerialSchedule: true}},
		{"greedy cover (MDP-G)", pathworm.Scheme{Greedy: true}},
	}
	degrees := []float64{4, 8, 16, 31}
	ys, err := singleMeans(cfg, len(variants), len(degrees), func(vi, di int) single {
		d := int(degrees[di])
		return single{fmt.Sprintf("ab-path/%s/d=%d", variants[vi].label, d), rts, variants[vi].scheme, cfg.Params, d, cfg.MsgFlits}
	})
	if err != nil {
		return nil, err
	}
	iso := &metrics.Table{
		Title:  "Ablation: path worm dispatch — isolated multicast",
		XLabel: "multicast degree",
		YLabel: singleYLabel,
	}
	for vi, v := range variants {
		iso.Series = append(iso.Series, metrics.Series{Label: v.label, X: degrees, Y: ys[vi]})
	}

	loadRts, err := family(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	load := &metrics.Table{
		Title:  "Ablation: path worm dispatch — under 16-way multicast load",
		XLabel: "effective applied load",
		YLabel: "mean multicast latency (cycles)",
	}
	specs := make([]loadCurveSpec, len(variants))
	for i, v := range variants {
		specs[i] = loadCurveSpec{
			Label: v.label, Cell: "load/" + v.label + " (path dispatch ablation)",
			Scheme: v.scheme, Rts: loadRts, Params: cfg.Params, Degree: 16, Flits: cfg.MsgFlits,
		}
	}
	series, err := runLoadCurves(cfg, specs)
	if err != nil {
		return nil, err
	}
	load.Series = append(load.Series, series...)
	return []*metrics.Table{iso, load}, nil
}

// AblationFPFS quantifies the paper's §3.2.1 claim that the smart NI's
// First-Packet-First-Served forwarding is what makes the NI-based scheme
// competitive for multi-packet messages: the store-and-forward variant
// waits for the whole message at each intermediate NI, losing the
// pipeline across tree levels.
func AblationFPFS(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		label string
		sf    bool
	}{
		{"FPFS (paper)", false},
		{"store-and-forward", true},
	}
	flits := []float64{128, 256, 512, 1024}
	ys, err := singleMeans(cfg, len(variants), len(flits), func(vi, fi int) single {
		p := cfg.Params
		p.NIStoreAndForward = variants[vi].sf
		f := int(flits[fi])
		return single{fmt.Sprintf("ab-fpfs/%s/f=%d", variants[vi].label, f), rts, kbinomial.New(), p, cfg.Degree, f}
	})
	if err != nil {
		return nil, err
	}
	tab := &metrics.Table{
		Title:  "Ablation: smart-NI forwarding — FPFS vs store-and-forward",
		XLabel: "message flits",
		YLabel: singleYLabel,
	}
	for vi, v := range variants {
		tab.Series = append(tab.Series, metrics.Series{Label: v.label, X: flits, Y: ys[vi]})
	}
	return []*metrics.Table{tab}, nil
}

// AblationOptimalK validates the analytic fanout model: it sweeps fixed k
// against the simulator for single- and multi-packet messages and marks
// the k the model would have chosen. The measured minimum should sit at
// or next to the model's choice.
func AblationOptimalK(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	flits := []int{128, 1024}
	ks := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys, err := singleMeans(cfg, len(flits), len(ks), func(fi, ki int) single {
		k := int(ks[ki])
		return single{fmt.Sprintf("ab-k/f=%d/k=%d", flits[fi], k), rts, kbinomial.Scheme{FixedK: k}, cfg.Params, cfg.Degree, flits[fi]}
	})
	if err != nil {
		return nil, err
	}
	var out []*metrics.Table
	for fi, f := range flits {
		chosen := kbinomial.New().Fanout(rts[0], cfg.Params, cfg.Degree, f)
		s := metrics.Series{Label: "ni-kbinomial fixed k", X: ks, Y: ys[fi]}
		for _, k := range ks {
			note := ""
			if int(k) == chosen {
				note = "<-model"
			}
			s.Note = append(s.Note, note)
		}
		out = append(out, &metrics.Table{
			Title: fmt.Sprintf("Ablation: measured latency vs fixed k (%d flits, %d-way; model picks k=%d)",
				f, cfg.Degree, chosen),
			XLabel: "k",
			YLabel: singleYLabel,
			Series: []metrics.Series{s},
		})
	}
	return out, nil
}

// AblationBufferSize measures sensitivity of all three schemes to the
// switch input buffer depth under load.
func AblationBufferSize(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.LoadTopologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return loadPanels(cfg, "Ablation: input buffer depth", []float64{4, 16, 64}, "buffer flits",
		func(v float64) ([]*updown.Routing, sim.Params, int, error) {
			p := cfg.Params
			p.BufferFlits = int(v)
			return rts, p, cfg.MsgFlits, nil
		})
}
