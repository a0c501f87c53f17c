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
	tab := &metrics.Table{
		Title:  "Ablation: tree worm climb-then-branch vs early branching",
		XLabel: "multicast degree",
		YLabel: "mean single multicast latency (cycles)",
	}
	variants := []struct {
		label string
		early bool
	}{
		{"climb-then-branch (paper)", false},
		{"early branching", true},
	}
	for _, v := range variants {
		p := cfg.Params
		p.EarlyTreeBranch = v.early
		s := metrics.Series{Label: v.label}
		for _, degree := range []float64{4, 8, 16, 31} {
			mean, err := singleMean(cfg, fmt.Sprintf("ab-tree/%s/d=%d", v.label, int(degree)), rts, treeworm.New(), p, int(degree), cfg.MsgFlits)
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
	iso := &metrics.Table{
		Title:  "Ablation: path worm dispatch — isolated multicast",
		XLabel: "multicast degree",
		YLabel: "mean single multicast latency (cycles)",
	}
	for _, v := range variants {
		s := metrics.Series{Label: v.label}
		for _, degree := range []float64{4, 8, 16, 31} {
			mean, err := singleMean(cfg, fmt.Sprintf("ab-path/%s/d=%d", v.label, int(degree)), rts, v.scheme, cfg.Params, int(degree), cfg.MsgFlits)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, degree)
			s.Y = append(s.Y, mean)
		}
		iso.Series = append(iso.Series, s)
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
			Label: v.label, ErrCtx: " (path dispatch ablation)",
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
	tab := &metrics.Table{
		Title:  "Ablation: smart-NI forwarding — FPFS vs store-and-forward",
		XLabel: "message flits",
		YLabel: "mean single multicast latency (cycles)",
	}
	variants := []struct {
		label string
		sf    bool
	}{
		{"FPFS (paper)", false},
		{"store-and-forward", true},
	}
	for _, v := range variants {
		p := cfg.Params
		p.NIStoreAndForward = v.sf
		s := metrics.Series{Label: v.label}
		for _, flits := range []float64{128, 256, 512, 1024} {
			mean, err := singleMean(cfg, fmt.Sprintf("ab-fpfs/%s/f=%d", v.label, int(flits)), rts, kbinomial.New(), p, cfg.Degree, int(flits))
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, flits)
			s.Y = append(s.Y, mean)
		}
		tab.Series = append(tab.Series, s)
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
	var out []*metrics.Table
	for _, flits := range []int{128, 1024} {
		chosen := kbinomial.New().Fanout(rts[0], cfg.Params, cfg.Degree, flits)
		tab := &metrics.Table{
			Title: fmt.Sprintf("Ablation: measured latency vs fixed k (%d flits, %d-way; model picks k=%d)",
				flits, cfg.Degree, chosen),
			XLabel: "k",
			YLabel: "mean single multicast latency (cycles)",
		}
		s := metrics.Series{Label: "ni-kbinomial fixed k"}
		for k := 1; k <= 8; k++ {
			mean, err := singleMean(cfg, fmt.Sprintf("ab-k/f=%d/k=%d", flits, k), rts, kbinomial.Scheme{FixedK: k}, cfg.Params, cfg.Degree, flits)
			if err != nil {
				return nil, err
			}
			note := ""
			if k == chosen {
				note = "<-model"
			}
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, mean)
			s.Note = append(s.Note, note)
		}
		tab.Series = []metrics.Series{s}
		out = append(out, tab)
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
