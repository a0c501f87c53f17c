package experiment

import (
	"fmt"
	"math"

	"mcastsim/internal/event"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/traffic"
	"mcastsim/internal/updown"
)

// FaultSweep measures dynamic fault tolerance: links fail mid-flight
// (not between runs, as in the static "fault" experiment) and the
// NI-level retransmission protocol re-plans the undelivered remainder
// against the reconfigured up*/down* tables. The sweep varies the number
// of simultaneous link failures per probe and compares schemes on three
// axes: delivery ratio (should stay 100% while the network remains
// connected — only non-partitioning link sets are injected), recovery
// latency (timeouts + backoff + retransmission), and post-fault
// steady-state latency (a clean multicast on the reconfigured network).
// The detection delay before tables rebuild is Params.FaultDetectCycles.
func FaultSweep(cfg Config) ([]*metrics.Table, error) {
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		return nil, err
	}
	failures := []int{0, 1, 2}

	delivery := &metrics.Table{
		Title:  "Fault sweep: delivery ratio under mid-flight link failures",
		XLabel: "simultaneous link failures",
		YLabel: "destinations delivered (%)",
	}
	recovery := &metrics.Table{
		Title:  "Fault sweep: recovery latency (timeout + re-plan + retransmit)",
		XLabel: "simultaneous link failures",
		YLabel: "mean reliable-delivery latency (cycles)",
	}
	steady := &metrics.Table{
		Title:  "Fault sweep: post-fault steady-state multicast latency",
		XLabel: "simultaneous link failures",
		YLabel: "mean clean multicast latency after reconfiguration (cycles)",
	}

	// One cell per (scheme, failure count, topology): a full fault
	// probe batch on its own network, seeded by the same rng.Mix grid the
	// serial sweep used.
	schemes := compared()
	cells, err := grid(cfg, len(schemes), len(failures), func(int, int) int { return len(rts) },
		func(si, fi, ti int, cc *cellCtx) ([]traffic.FaultProbe, error) {
			f := failures[fi]
			label := fmt.Sprintf("faultsweep/%s/f=%d/topo%03d", schemes[si].Name(), f, ti)
			r, err := traffic.Run(rts[ti], traffic.Workload{
				Scheme: schemes[si], Params: cfg.Params, Degree: cfg.Degree,
				MsgFlits: cfg.MsgFlits,
				Seed:     rng.Mix(cfg.Seed, 0xfa11, uint64(ti), uint64(f)),
			}, traffic.WithFaults(traffic.FaultSpec{
				Probes: cfg.Probes,
				Faults: func(probe int, rt *updown.Routing) *sim.FaultSchedule {
					return nonPartitioningLinkFaults(rt, f,
						rng.Mix(cfg.Seed, 0x5eed, uint64(ti), uint64(probe), uint64(f)))
				},
			}), traffic.WithObs(cc.recorder(label)))
			if err != nil {
				return nil, fmt.Errorf("experiment: %s: %w", label, err)
			}
			return r.Faults, nil
		})
	if err != nil {
		return nil, err
	}

	for si, sch := range schemes {
		dSer := metrics.Series{Label: sch.Name()}
		rSer := metrics.Series{Label: sch.Name()}
		sSer := metrics.Series{Label: sch.Name()}
		for fi, f := range failures {
			var delivered, total, attempts, probes int
			var recSum float64
			var postSum float64
			var postCount int
			for _, topo := range cells[si][fi] {
				for _, pr := range topo {
					delivered += pr.Delivered
					total += pr.Total
					attempts += pr.Attempts
					probes++
					recSum += pr.Recovery
					if !math.IsNaN(pr.Post) {
						postSum += pr.Post
						postCount++
					}
				}
			}
			dSer.X = append(dSer.X, float64(f))
			dSer.Y = append(dSer.Y, 100*float64(delivered)/float64(total))
			dSer.Note = append(dSer.Note, fmt.Sprintf("%.2f attempts/probe", float64(attempts)/float64(probes)))
			rSer.X = append(rSer.X, float64(f))
			rSer.Y = append(rSer.Y, recSum/float64(probes))
			sSer.X = append(sSer.X, float64(f))
			if postCount > 0 {
				sSer.Y = append(sSer.Y, postSum/float64(postCount))
			} else {
				sSer.Y = append(sSer.Y, math.NaN())
			}
		}
		delivery.Series = append(delivery.Series, dSer)
		recovery.Series = append(recovery.Series, rSer)
		steady.Series = append(steady.Series, sSer)
	}
	return []*metrics.Table{delivery, recovery, steady}, nil
}

// nonPartitioningLinkFaults builds a schedule failing `count` links whose
// joint removal keeps the switch graph connected (so full delivery stays
// achievable and the sweep isolates recovery behavior from partition
// loss). Fault times land mid-flight for an isolated multicast started at
// cycle 0. Returns nil when count is 0 or no removable link exists.
func nonPartitioningLinkFaults(rt *updown.Routing, count int, seed uint64) *sim.FaultSchedule {
	if count <= 0 {
		return nil
	}
	t := rt.Topo
	r := rng.New(seed)
	dead := make([]bool, len(t.Links))
	at := event.Time(200 + r.Intn(400))
	fs := &sim.FaultSchedule{}
	for _, li := range r.Perm(len(t.Links)) {
		dead[li] = true
		if !t.ConnectedExcluding(dead, nil) {
			dead[li] = false
			continue
		}
		fs.Events = append(fs.Events, sim.FaultEvent{At: at, Kind: sim.FaultLink, Link: li})
		at += event.Time(100 + r.Intn(200))
		if len(fs.Events) == count {
			break
		}
	}
	if len(fs.Events) == 0 {
		return nil
	}
	return fs
}
