// Package traffic drives the simulator with the paper's two workload
// types: isolated single multicasts ("exactly one multicast in the system
// at any given time", §4.1) and open-loop multicast load, where every node
// generates degree-d multicasts with exponential interarrival times and
// latency is measured against effective applied load (§4.3).
//
// Run is the entry point for every mode: a Workload plus functional
// options selecting the mode and cross-cutting concerns (telemetry,
// tracing). RunLoadOn runs one load point on a network the caller
// assembled, for callers that inspect the network afterwards.
package traffic

import (
	"fmt"
	"math"

	"mcastsim/internal/event"
	"mcastsim/internal/mcast"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// randomSet draws a source and a degree-d destination set, uniform over
// nodes, source excluded.
func randomSet(r *rng.Source, numNodes, degree int) (topology.NodeID, []topology.NodeID) {
	if degree >= numNodes {
		panic(fmt.Sprintf("traffic: degree %d with %d nodes", degree, numNodes))
	}
	picks := r.Sample(numNodes, degree+1)
	src := topology.NodeID(picks[0])
	dests := make([]topology.NodeID, degree)
	for i, v := range picks[1:] {
		dests[i] = topology.NodeID(v)
	}
	return src, dests
}

// destsFrom draws a degree-d destination set excluding src.
func destsFrom(r *rng.Source, numNodes, degree int, src topology.NodeID) []topology.NodeID {
	if degree >= numNodes {
		panic(fmt.Sprintf("traffic: degree %d with %d nodes", degree, numNodes))
	}
	out := make([]topology.NodeID, 0, degree)
	for _, v := range r.Sample(numNodes-1, degree) {
		// Map [0, numNodes-1) onto node IDs skipping src.
		if topology.NodeID(v) >= src {
			v++
		}
		out = append(out, topology.NodeID(v))
	}
	return out
}

// runSingle is single mode's implementation (Run's default mode). Each
// probe runs on its own quiet network whose seed derives from the probe
// index alone.
func runSingle(rt *updown.Routing, w Workload, probes int, o *runOpts) ([]float64, error) {
	if probes <= 0 {
		return nil, fmt.Errorf("traffic: non-positive probe count")
	}
	r := rng.New(w.Seed)
	out := make([]float64, 0, probes)
	for i := 0; i < probes; i++ {
		src, dests := randomSet(r, rt.Topo.NumNodes, w.Degree)
		plan, err := w.Scheme.Plan(rt, w.Params, src, dests, w.MsgFlits)
		if err != nil {
			return nil, fmt.Errorf("traffic: probe %d: %w", i, err)
		}
		// Mix, not add: w.Seed+uint64(i) makes probe i's arbitration
		// stream collide with the traffic stream of a cell seeded one
		// apart.
		n, err := sim.New(rt, w.Params, rng.Mix(w.Seed, 0xa2b17, uint64(i)), o.simOpts()...)
		if err != nil {
			return nil, err
		}
		m, err := n.RunSingle(plan, w.MsgFlits)
		if err != nil {
			return nil, fmt.Errorf("traffic: probe %d (%s): %w", i, w.Scheme.Name(), err)
		}
		if err := n.CheckConservation(); err != nil {
			return nil, fmt.Errorf("traffic: probe %d: %w", i, err)
		}
		n.FlushObs()
		out = append(out, float64(m.Latency()))
	}
	return out, nil
}

// LoadConfig parameterizes an open-loop multicast load run.
type LoadConfig struct {
	Workload
	LoadSpec
}

// LoadResult is one point of a latency-vs-load curve.
type LoadResult struct {
	EffectiveLoad float64
	Latency       metrics.Summary // completed messages initiated in the window
	Initiated     int             // messages initiated in the window
	Completed     int             // of those, completed by the end of drain
	// AcceptedLoad is the measured delivery rate normalized like the
	// x-axis (payload flits delivered to hosts per node per cycle).
	AcceptedLoad float64
	// Saturated flags the point: completions fell behind initiations or
	// the queue kept growing (latency values then mean little).
	Saturated bool
}

// runLoad is load mode's implementation: a fresh network assembled with
// the run's cross-cutting options, then the shared load loop.
func runLoad(rt *updown.Routing, w Workload, spec LoadSpec, o *runOpts) (LoadResult, error) {
	n, err := sim.New(rt, w.Params, w.Seed, o.simOpts()...)
	if err != nil {
		return LoadResult{}, err
	}
	return RunLoadOn(n, rt, LoadConfig{Workload: w, LoadSpec: spec})
}

// RunLoadOn runs the load point on a caller-provided network (which must be
// fresh), so the caller can inspect the network — channel utilization,
// conservation counters — afterwards.
//
// Concurrency contract: the arrival closures below capture res, measured
// and genErr with no synchronization. That is safe because a sim.Network
// and every callback it fires are single-goroutine — the closures only run
// inside n.RunUntil on this goroutine (the Network's event-loop guard
// panics on concurrent entry). A parallel harness may therefore only
// parallelize across networks (one cell = one Network), never within one.
func RunLoadOn(n *sim.Network, rt *updown.Routing, cfg LoadConfig) (LoadResult, error) {
	if cfg.EffectiveLoad <= 0 {
		return LoadResult{}, fmt.Errorf("traffic: non-positive load")
	}
	if cfg.Warmup < 0 || cfg.Measure <= 0 || cfg.Drain < 0 {
		return LoadResult{}, fmt.Errorf("traffic: bad load windows")
	}
	numNodes := rt.Topo.NumNodes
	// Per-node message interarrival mean: raw flit rate l = E/d, message
	// rate = l / MsgFlits, so mean gap = d*MsgFlits/E cycles.
	meanGap := float64(cfg.Degree) * float64(cfg.MsgFlits) / cfg.EffectiveLoad

	genEnd := cfg.Warmup + cfg.Measure
	res := LoadResult{EffectiveLoad: cfg.EffectiveLoad}
	var measured []float64
	var genErr error
	root := rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)

	for node := 0; node < numNodes; node++ {
		node := node
		r := root.Split()
		var arrival func()
		arrival = func() {
			now := n.Now()
			if now >= genEnd || genErr != nil {
				return
			}
			dests := destsFrom(r, numNodes, cfg.Degree, topology.NodeID(node))
			plan, err := cfg.Scheme.Plan(rt, cfg.Params, topology.NodeID(node), dests, cfg.MsgFlits)
			if err != nil {
				genErr = err
				return
			}
			inWindow := now >= cfg.Warmup
			if inWindow {
				res.Initiated++
			}
			_, err = n.Send(plan, cfg.MsgFlits, now, func(m *sim.Message) {
				if inWindow {
					res.Completed++
					measured = append(measured, float64(m.Latency()))
				}
			})
			if err != nil {
				genErr = err
				return
			}
			gap := event.Time(r.Exp(meanGap)) + 1
			n.Schedule(now+gap, arrival)
		}
		first := event.Time(root.Exp(meanGap))
		n.Schedule(first, arrival)
	}

	n.RunUntil(genEnd + cfg.Drain)
	n.FlushObs()
	if genErr != nil {
		return LoadResult{}, genErr
	}
	res.Latency = metrics.Summarize(measured)
	// Completed messages were all initiated within the measure window, so
	// that window is the rate denominator (the drain only lets stragglers
	// finish).
	res.AcceptedLoad = float64(res.Completed*cfg.Degree*cfg.MsgFlits) / (float64(numNodes) * float64(cfg.Measure))
	// Saturation: a meaningful fraction of measured messages never
	// finished even after the drain window.
	res.Saturated = res.Initiated > 0 && float64(res.Completed) < 0.9*float64(res.Initiated)
	return res, nil
}

// runMixed is mixed mode's implementation: multicast probes over a
// background of uniform unicast traffic — the regime a real NOW lives
// in, where multicast competes with ordinary point-to-point messages
// rather than only with other multicasts.
func runMixed(rt *updown.Routing, w Workload, spec MixedSpec, o *runOpts) ([]float64, error) {
	if spec.Probes <= 0 || spec.ProbeGap <= 0 {
		return nil, fmt.Errorf("traffic: bad mixed probe settings")
	}
	if spec.BackgroundLoad < 0 {
		return nil, fmt.Errorf("traffic: negative background load")
	}
	n, err := sim.New(rt, w.Params, w.Seed, o.simOpts()...)
	if err != nil {
		return nil, err
	}
	numNodes := rt.Topo.NumNodes
	end := spec.Warmup + event.Time(spec.Probes+1)*spec.ProbeGap
	root := rng.New(w.Seed ^ 0xABCDEF)
	var genErr error

	// Unicast background: open loop per node.
	if spec.BackgroundLoad > 0 {
		meanGap := float64(spec.BackgroundFlits) / spec.BackgroundLoad
		for node := 0; node < numNodes; node++ {
			node := node
			r := root.Split()
			var arrival func()
			arrival = func() {
				now := n.Now()
				if now >= end || genErr != nil {
					return
				}
				dst := topology.NodeID(r.Intn(numNodes - 1))
				if int(dst) >= node {
					dst++
				}
				plan := &sim.Plan{
					Source: topology.NodeID(node),
					Dests:  []topology.NodeID{dst},
					HostSends: map[topology.NodeID][]sim.WormSpec{
						topology.NodeID(node): {{Kind: sim.WormUnicast, Dest: dst}},
					},
				}
				if _, err := n.Send(plan, spec.BackgroundFlits, now, nil); err != nil {
					genErr = err
					return
				}
				n.Schedule(now+event.Time(r.Exp(meanGap))+1, arrival)
			}
			n.Schedule(event.Time(root.Exp(meanGap)), arrival)
		}
	}

	// Multicast probes, one at a time on top of the background.
	probeRng := root.Split()
	lats := make([]float64, 0, spec.Probes)
	for i := 0; i < spec.Probes; i++ {
		i := i
		at := spec.Warmup + event.Time(i+1)*spec.ProbeGap
		n.Schedule(at, func() {
			if genErr != nil {
				return
			}
			src, dests := randomSet(probeRng, numNodes, w.Degree)
			plan, err := w.Scheme.Plan(rt, w.Params, src, dests, w.MsgFlits)
			if err != nil {
				genErr = err
				return
			}
			if _, err := n.Send(plan, w.MsgFlits, n.Now(), func(m *sim.Message) {
				lats = append(lats, float64(m.Latency()))
			}); err != nil {
				genErr = err
			}
		})
	}
	n.RunUntil(end + 200_000) // let probes finish after generation stops
	n.FlushObs()
	if genErr != nil {
		return nil, genErr
	}
	if len(lats) < spec.Probes {
		return nil, fmt.Errorf("traffic: only %d/%d probes completed (background saturated?)", len(lats), spec.Probes)
	}
	return lats, nil
}

// AsReplanner adapts a multicast scheme to the simulator's retransmission
// hook: the failed remainder is re-planned exactly like a fresh multicast,
// against whatever routing tables are in force at re-plan time.
func AsReplanner(s mcast.Scheme, p sim.Params) sim.Replanner {
	return func(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID, msgFlits int) (*sim.Plan, error) {
		return s.Plan(rt, p, src, dests, msgFlits)
	}
}

// FaultProbe is one reliable multicast's outcome under faults, plus a
// post-fault steady-state measurement taken on the same (reconfigured)
// network once the dust settles.
type FaultProbe struct {
	Delivered, Total int
	Attempts         int
	// Recovery is the reliable operation's completion latency in cycles —
	// under faults, the recovery latency including timeouts and retries.
	Recovery float64
	// Partitioned reports whether reconfiguration found the surviving
	// switch graph disconnected.
	Partitioned bool
	// Post is a clean probe's latency on the post-fault network (NaN when
	// it could not be fully delivered or no probe fit the survivors);
	// PostDelivered/PostTotal give its delivery counts.
	Post                     float64
	PostDelivered, PostTotal int
}

// runFault is fault mode's implementation: each probe gets a fresh
// network, its schedule installed, one reliable multicast driven to
// completion, and then one clean follow-up multicast measuring
// post-fault steady-state latency. Conservation is not checked —
// torn-down worms legitimately drop flits.
func runFault(rt *updown.Routing, w Workload, spec FaultSpec, o *runOpts) ([]FaultProbe, error) {
	if spec.Probes <= 0 {
		return nil, fmt.Errorf("traffic: non-positive probe count")
	}
	pol := spec.Retry
	if pol == (sim.RetryPolicy{}) {
		pol = sim.DefaultRetryPolicy()
	}
	replan := AsReplanner(w.Scheme, w.Params)
	r := rng.New(w.Seed)
	out := make([]FaultProbe, 0, spec.Probes)
	for i := 0; i < spec.Probes; i++ {
		src, dests := randomSet(r, rt.Topo.NumNodes, w.Degree)
		plan, err := w.Scheme.Plan(rt, w.Params, src, dests, w.MsgFlits)
		if err != nil {
			return nil, fmt.Errorf("traffic: fault probe %d: %w", i, err)
		}
		n, err := sim.New(rt, w.Params, rng.Mix(w.Seed, 0xfa017, uint64(i)), o.simOpts()...)
		if err != nil {
			return nil, err
		}
		if spec.Faults != nil {
			if fs := spec.Faults(i, rt); fs != nil {
				if err := n.InstallFaults(fs); err != nil {
					return nil, fmt.Errorf("traffic: fault probe %d: %w", i, err)
				}
			}
		}
		d, err := n.RunReliable(plan, w.MsgFlits, replan, pol)
		if err != nil {
			return nil, fmt.Errorf("traffic: fault probe %d (%s): %w", i, w.Scheme.Name(), err)
		}
		pr := FaultProbe{
			Delivered:   d.Delivered(),
			Total:       len(d.Dests),
			Attempts:    d.Attempts,
			Recovery:    float64(d.Latency()),
			Partitioned: n.Partitioned(),
			Post:        nan(),
		}
		if post, ok := postFaultProbe(n, r, w, replan, pol); ok {
			pr.Post = post.Post
			pr.PostDelivered = post.PostDelivered
			pr.PostTotal = post.PostTotal
		}
		n.FlushObs()
		out = append(out, pr)
	}
	return out, nil
}

func nan() float64 { return math.NaN() }

// postFaultProbe runs one clean reliable multicast among surviving nodes
// on the settled post-fault network, against the reconfigured tables.
func postFaultProbe(n *sim.Network, r *rng.Source, w Workload, replan sim.Replanner, pol sim.RetryPolicy) (FaultProbe, bool) {
	var alive []topology.NodeID
	for node := 0; node < n.Topology().NumNodes; node++ {
		if n.NodeAlive(topology.NodeID(node)) {
			alive = append(alive, topology.NodeID(node))
		}
	}
	if len(alive) < w.Degree+1 {
		return FaultProbe{}, false
	}
	picks := r.Sample(len(alive), w.Degree+1)
	src := alive[picks[0]]
	dests := make([]topology.NodeID, w.Degree)
	for i, v := range picks[1:] {
		dests[i] = alive[v]
	}
	plan, err := w.Scheme.Plan(n.Routing(), w.Params, src, dests, w.MsgFlits)
	if err != nil {
		return FaultProbe{}, false
	}
	d, err := n.RunReliable(plan, w.MsgFlits, replan, pol)
	if err != nil {
		return FaultProbe{}, false
	}
	pr := FaultProbe{Post: nan(), PostDelivered: d.Delivered(), PostTotal: len(d.Dests)}
	if d.DeliveredAll() {
		pr.Post = float64(d.Latency())
	}
	return pr, true
}
