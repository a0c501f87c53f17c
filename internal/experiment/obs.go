package experiment

import (
	"sort"
	"sync"

	"mcastsim/internal/event"
	"mcastsim/internal/obs"
)

// ObsSink collects one obs.Bundle per simulation cell across an
// experiment run. runCells commits each cell's bundle from its worker
// goroutine in completion order, a resumed cell's journaled bundle
// included; Bundles sorts by the deterministic cell label, so the
// exported series are byte-identical for every -workers value and for
// resumed runs, the same order-stability contract the result assembly
// in runCells keeps.
type ObsSink struct {
	// Config parameterizes every cell recorder the sink hands out.
	Config obs.Config
	// OnAdd, when non-nil, observes every bundle as it commits — in
	// completion order, from worker goroutines (must be safe for
	// concurrent use). The serve subsystem streams telemetry live
	// through this hook; Bundles still returns the sorted total.
	OnAdd func(b obs.Bundle)

	mu      sync.Mutex
	bundles []obs.Bundle
}

// add commits one cell's bundle. Safe for concurrent use.
func (s *ObsSink) add(b obs.Bundle) {
	s.mu.Lock()
	s.bundles = append(s.bundles, b)
	s.mu.Unlock()
	if s.OnAdd != nil {
		s.OnAdd(b)
	}
}

// every is the cadence the sink's recorders sample at, or 0 for a nil
// sink (telemetry off).
func (s *ObsSink) every() event.Time {
	if s == nil {
		return 0
	}
	return obs.NewRecorder(s.Config).Every()
}

// Bundles returns every committed bundle sorted by cell label.
func (s *ObsSink) Bundles() []obs.Bundle {
	s.mu.Lock()
	out := append([]obs.Bundle(nil), s.bundles...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// cellCtx is handed to every runCells cell callback. A cell that
// simulates asks it for a telemetry recorder; once the cell succeeds,
// runCells journals the recorder's bundle with the result and commits
// it to the sink.
type cellCtx struct {
	sink  *ObsSink
	label string
	rec   *obs.Recorder
}

// recorder returns the cell's telemetry recorder, or nil with telemetry
// off — traffic.WithObs(nil) and sim.WithObs(nil) both treat that as
// disabled, so cells thread it through unconditionally. label must be
// unique across the whole run: it is the bundle's identity and the sort
// key that makes export order worker-count independent. A cell asks at
// most once.
func (cc *cellCtx) recorder(label string) *obs.Recorder {
	if cc.sink == nil {
		return nil
	}
	cc.label, cc.rec = label, obs.NewRecorder(cc.sink.Config)
	return cc.rec
}

// bundle packages what the cell recorded; nil if it asked for no
// recorder.
func (cc *cellCtx) bundle() *obs.Bundle {
	if cc.rec == nil {
		return nil
	}
	b := cc.rec.Bundle(cc.label)
	return &b
}
