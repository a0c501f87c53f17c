package experiment

import (
	"fmt"
	"math"

	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/traffic"
	"mcastsim/internal/updown"
)

// Churn-sweep salts (joined by topology/probe/failure indices at the
// call sites below, like the fault sweep's 0xfa11/0x5eed pair).
const (
	saltChurn      uint64 = 0xc092a // churn traffic cells (topology index only)
	saltChurnFault uint64 = 0xcf417 // per-(topology, probe, failures) fault schedules
)

// churnWindow/churnCadence fix the churn cell geometry: a 20k-cycle
// window with a group multicast every 2k cycles (~10 sends racing the
// membership stream). The churn axis is events per window.
const (
	churnWindow  = 20_000
	churnCadence = 2_000
)

// churnProbes bounds the per-cell probe count: each churn probe is a
// full 20k-cycle window with ~10 multicasts, not one isolated multicast,
// so cfg.Probes (sized for the latter) would be ~10x oversampling.
func churnProbes(cfg Config) int {
	if cfg.Probes > 4 {
		return 4
	}
	return cfg.Probes
}

// ChurnSweep measures dynamic-group robustness: membership churn rate ×
// scheme × fault schedule. A group of Degree members evolves under a
// seeded join/leave stream while the source multicasts to it on a fixed
// cadence; the scheme's group planner repairs the plan on every delta
// (incremental NI-tree splices vs switch-worm header regeneration, see
// internal/mcast/groupplan). Four axes come out: delivery ratio
// (destinations reached, with in-flight losses under composed link
// faults), tree-update latency (modeled repair cycles per membership
// event), stale-delivery rate (worms racing a leave), and post-churn
// steady-state latency (one clean multicast on the repaired tree).
func ChurnSweep(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	churn := []int{0, 8, 24} // membership events per window
	failures := []int{0, 1}  // composed mid-window link failures

	delivery := &metrics.Table{
		Title:  "Churn sweep: delivery ratio under membership churn",
		XLabel: "membership events per 20k-cycle window",
		YLabel: "destination deliveries completed (%)",
	}
	repair := &metrics.Table{
		Title:  "Churn sweep: tree-update latency per membership event",
		XLabel: "membership events per 20k-cycle window",
		YLabel: "mean modeled repair latency (cycles/event)",
	}
	stale := &metrics.Table{
		Title:  "Churn sweep: stale deliveries (in-flight worms racing a leave)",
		XLabel: "membership events per 20k-cycle window",
		YLabel: "stale deliveries per 100 completed deliveries",
	}
	steady := &metrics.Table{
		Title:  "Churn sweep: post-churn steady-state multicast latency",
		XLabel: "membership events per 20k-cycle window",
		YLabel: "mean clean multicast latency on the repaired plan (cycles)",
	}

	// One cell per (scheme, churn level, failure count, topology). The
	// workload seed is salted by topology index only — every scheme,
	// churn level and failure count sees the same source/member draws on
	// a given topology, the paired design of the other sweeps. (The
	// schedule stream derives from the workload seed inside traffic, so
	// churn levels differ only in how much of it they consume.)
	schemes := compared()
	probes := churnProbes(cfg)
	type key struct{ si, ci, fi, ti int }
	var keys []key
	for si := range schemes {
		for ci := range churn {
			for fi := range failures {
				for ti := range rts {
					keys = append(keys, key{si, ci, fi, ti})
				}
			}
		}
	}
	cells, err := runCells(cfg, len(keys), func(i int, cc *cellCtx) ([]traffic.ChurnProbe, error) {
		k := keys[i]
		f := failures[k.fi]
		rec := cc.recorder(fmt.Sprintf("churnsweep/%s/e=%d/f=%d/topo%03d",
			schemes[k.si].Name(), churn[k.ci], f, k.ti))
		var faults func(int, *updown.Routing) *sim.FaultSchedule
		if f > 0 {
			faults = func(probe int, rt *updown.Routing) *sim.FaultSchedule {
				return nonPartitioningLinkFaults(rt, f,
					rng.Mix(cfg.Seed, saltChurnFault, uint64(k.ti), uint64(probe), uint64(f)))
			}
		}
		r, err := traffic.Run(rts[k.ti], traffic.Workload{
			Scheme: schemes[k.si], Params: cfg.Params, Degree: cfg.Degree,
			MsgFlits: cfg.MsgFlits,
			Seed:     rng.Mix(cfg.Seed, saltChurn, uint64(k.ti)),
		}, traffic.WithChurn(traffic.ChurnSpec{
			Probes:    probes,
			Events:    churn[k.ci],
			Horizon:   churnWindow,
			SendEvery: churnCadence,
			Faults:    faults,
		}), traffic.WithObs(rec))
		if err != nil {
			return nil, fmt.Errorf("experiment: churnsweep %s e=%d f=%d: %w",
				schemes[k.si].Name(), churn[k.ci], f, err)
		}
		return r.Churn, nil
	})
	if err != nil {
		return nil, err
	}

	cellAt := func(si, ci, fi, ti int) []traffic.ChurnProbe {
		return cells[((si*len(churn)+ci)*len(failures)+fi)*len(rts)+ti]
	}
	for si, sch := range schemes {
		for fi, f := range failures {
			label := sch.Name()
			if f > 0 {
				label = fmt.Sprintf("%s +%d link fault", sch.Name(), f)
			}
			dSer := metrics.Series{Label: label}
			rSer := metrics.Series{Label: label}
			tSer := metrics.Series{Label: label}
			sSer := metrics.Series{Label: label}
			for ci, e := range churn {
				var delivered, total int
				var staleN, missedN, events, repairCyc int64
				var postSum float64
				var postCount int
				for ti := range rts {
					for _, pr := range cellAt(si, ci, fi, ti) {
						delivered += pr.Delivered
						total += pr.TotalDests
						staleN += pr.Stale
						missedN += pr.Missed
						events += pr.Joins + pr.Leaves
						repairCyc += int64(pr.RepairCycles)
						if !math.IsNaN(pr.Post) {
							postSum += pr.Post
							postCount++
						}
					}
				}
				x := float64(e)
				dSer.X = append(dSer.X, x)
				dSer.Y = append(dSer.Y, 100*float64(delivered)/float64(total))
				dSer.Note = append(dSer.Note, fmt.Sprintf("%d missed", missedN))
				rSer.X = append(rSer.X, x)
				if events > 0 {
					rSer.Y = append(rSer.Y, float64(repairCyc)/float64(events))
				} else {
					rSer.Y = append(rSer.Y, 0)
				}
				tSer.X = append(tSer.X, x)
				tSer.Y = append(tSer.Y, 100*float64(staleN)/float64(delivered))
				sSer.X = append(sSer.X, x)
				if postCount > 0 {
					sSer.Y = append(sSer.Y, postSum/float64(postCount))
				} else {
					sSer.Y = append(sSer.Y, math.NaN())
				}
			}
			delivery.Series = append(delivery.Series, dSer)
			repair.Series = append(repair.Series, rSer)
			stale.Series = append(stale.Series, tSer)
			steady.Series = append(steady.Series, sSer)
		}
	}
	return []*metrics.Table{delivery, repair, stale, steady}, nil
}
