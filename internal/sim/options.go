package sim

import "mcastsim/internal/obs"

// Option configures a Network at assembly time. Options are the only
// construction surface (the old post-construction setters are gone):
// New applies them after the topology is wired but before any event is
// posted, so an option can never observe a half-run network.
type Option func(*netOptions)

// netOptions is the collected option state New applies. Application
// order is fixed (tracer, obs) regardless of the order options are
// passed, so permuting a call's options cannot change behaviour.
type netOptions struct {
	tracer func(TraceEvent)
	rec    *obs.Recorder
}

// WithTrace installs a sink receiving every TraceEvent. Passing nil
// disables tracing (the default).
func WithTrace(fn func(TraceEvent)) Option {
	return func(o *netOptions) { o.tracer = fn }
}

// WithObs attaches a telemetry recorder (see internal/obs). Passing nil
// leaves observability disabled, so call sites can thread an optional
// recorder straight through. The recorder samples at its configured
// cadence while messages are in flight; callers flush the tail interval
// with Network.FlushObs when the run ends.
func WithObs(r *obs.Recorder) Option {
	return func(o *netOptions) { o.rec = r }
}

// applyOptions installs the collected options on the assembled network.
func (n *Network) applyOptions(o *netOptions) {
	n.tracer = o.tracer
	if o.rec != nil {
		n.attachObs(o.rec)
	}
}
