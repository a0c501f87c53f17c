package traffic

import (
	"fmt"

	"mcastsim/internal/event"
	"mcastsim/internal/mcast"
	"mcastsim/internal/obs"
	"mcastsim/internal/sim"
	"mcastsim/internal/updown"
)

// Workload is the scheme/shape tuple every traffic mode shares: which
// multicast scheme to drive, the simulated machine's timing parameters,
// the multicast degree and message length, and the seed every derived
// stream (probe draws, arrival processes, arbitration) mixes from. The
// mode-specific configs embed it, and the unified Run takes it directly.
type Workload struct {
	Scheme   mcast.Scheme
	Params   sim.Params
	Degree   int
	MsgFlits int
	Seed     uint64
}

// LoadSpec selects open-loop load mode (see WithLoad): every node
// generates degree-d multicasts with exponential interarrival times.
type LoadSpec struct {
	// EffectiveLoad is the paper's x-axis: for degree-d multicast applied
	// at raw per-node injection rate l (flits/cycle, normalized to the
	// 1 flit/cycle link bandwidth), the effective applied load is l*d.
	EffectiveLoad float64
	// Warmup is the cold-start period excluded from measurement (paper:
	// 100k cycles); Measure is the generation window measured; after it,
	// generation stops and in-flight messages get Drain cycles to finish.
	Warmup  event.Time
	Measure event.Time
	Drain   event.Time
}

// MixedSpec selects mixed mode (see WithMixed): isolated multicast
// probes over a background of uniform unicast traffic.
type MixedSpec struct {
	// BackgroundLoad is the unicast background intensity in flits per
	// cycle per node (fraction of injection-link capacity).
	BackgroundLoad float64
	// BackgroundFlits is the unicast message length.
	BackgroundFlits int
	// Probes multicast measurements are taken, spaced ProbeGap cycles
	// apart after Warmup cycles of background ramp-up.
	Probes   int
	ProbeGap event.Time
	Warmup   event.Time
}

// FaultSpec selects fault mode (see WithFaults): reliable single
// multicasts under an injected fault schedule.
type FaultSpec struct {
	Probes int
	// Retry is the NI-level reliable-delivery policy; the zero value means
	// sim.DefaultRetryPolicy.
	Retry sim.RetryPolicy
	// Faults builds probe i's fault schedule (nil, or a nil return, means
	// a fault-free probe). It runs before the probe's multicast is sent.
	Faults func(probe int, rt *updown.Routing) *sim.FaultSchedule
}

// Result is the union of every traffic mode's outcome; exactly the
// fields of the selected mode are populated.
type Result struct {
	// Latencies holds per-probe multicast latencies (single and mixed
	// modes).
	Latencies []float64
	// Load is the measured load point (load mode).
	Load *LoadResult
	// Faults holds per-probe reliable-delivery outcomes (fault mode).
	Faults []FaultProbe
	// Churn holds per-probe dynamic-group outcomes (churn mode).
	Churn []ChurnProbe
}

// runOpts is the collected option state for one Run.
type runOpts struct {
	probes int
	load   *LoadSpec
	mixed  *MixedSpec
	fault  *FaultSpec
	churn  *ChurnSpec
	rec    *obs.Recorder
	trace  func(sim.TraceEvent)
}

// Option configures a Run.
type Option func(*runOpts)

// WithProbes sets the probe count for single mode (ignored by the other
// modes, which carry their own counts in their specs).
func WithProbes(n int) Option {
	return func(o *runOpts) { o.probes = n }
}

// WithLoad selects open-loop load mode. Mutually exclusive with
// WithMixed and WithFaults.
func WithLoad(l LoadSpec) Option {
	return func(o *runOpts) { o.load = &l }
}

// WithMixed selects mixed multicast-over-unicast mode. Mutually
// exclusive with WithLoad and WithFaults.
func WithMixed(m MixedSpec) Option {
	return func(o *runOpts) { o.mixed = &m }
}

// WithFaults selects reliable-delivery-under-faults mode. Mutually
// exclusive with WithLoad, WithMixed and WithChurn.
func WithFaults(f FaultSpec) Option {
	return func(o *runOpts) { o.fault = &f }
}

// WithChurn selects dynamic-group churn mode: seeded join/leave streams
// mutate a multicast group's membership while the source keeps sending
// to it, with incremental plan repair (see ChurnSpec). Mutually
// exclusive with WithLoad, WithMixed and WithFaults.
func WithChurn(c ChurnSpec) Option {
	return func(o *runOpts) { o.churn = &c }
}

// WithObs attaches a telemetry recorder to every network the run
// creates; the run flushes the tail interval before returning, so the
// recorder's series reconcile with the final Stats. Passing nil leaves
// observability disabled, so optional recorders thread straight through.
func WithObs(r *obs.Recorder) Option {
	return func(o *runOpts) { o.rec = r }
}

// WithTrace installs fn as the TraceEvent sink on every network the run
// creates.
func WithTrace(fn func(sim.TraceEvent)) Option {
	return func(o *runOpts) { o.trace = fn }
}

// simOpts translates the run options into network assembly options.
func (o *runOpts) simOpts() []sim.Option {
	var opts []sim.Option
	if o.trace != nil {
		opts = append(opts, sim.WithTrace(o.trace))
	}
	if o.rec != nil {
		opts = append(opts, sim.WithObs(o.rec))
	}
	return opts
}

// Run is the unified traffic entrypoint: one workload, one mode picked
// by options (single-probe latency by default; WithLoad, WithMixed and
// WithFaults select the open-loop, background-unicast and fault modes),
// plus cross-cutting options (WithObs, WithTrace) that apply to every
// network the run creates. Seed derivations are identical to the
// retired per-mode entrypoints, so results are bit-for-bit the same as
// tables produced before the consolidation.
func Run(rt *updown.Routing, w Workload, opts ...Option) (Result, error) {
	var o runOpts
	for _, f := range opts {
		f(&o)
	}
	modes := 0
	for _, set := range []bool{o.load != nil, o.mixed != nil, o.fault != nil, o.churn != nil} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return Result{}, fmt.Errorf("traffic: WithLoad, WithMixed, WithFaults and WithChurn are mutually exclusive")
	}
	switch {
	case o.load != nil:
		res, err := runLoad(rt, w, *o.load, &o)
		if err != nil {
			return Result{}, err
		}
		return Result{Load: &res}, nil
	case o.mixed != nil:
		lats, err := runMixed(rt, w, *o.mixed, &o)
		if err != nil {
			return Result{}, err
		}
		return Result{Latencies: lats}, nil
	case o.fault != nil:
		probes, err := runFault(rt, w, *o.fault, &o)
		if err != nil {
			return Result{}, err
		}
		return Result{Faults: probes}, nil
	case o.churn != nil:
		probes, err := runChurn(rt, w, *o.churn, &o)
		if err != nil {
			return Result{}, err
		}
		return Result{Churn: probes}, nil
	default:
		lats, err := runSingle(rt, w, o.probes, &o)
		if err != nil {
			return Result{}, err
		}
		return Result{Latencies: lats}, nil
	}
}
