// Parallel cell runner. Every experiment decomposes into independent
// simulation cells — one traffic.Run invocation in one mode (or one
// collective or scale-sweep probe batch) with its own routed topology,
// its own sim.Network, and its own rng.Mix-derived seed. Cells never
// share a network (a sim.Network and its callbacks are single-goroutine;
// see sim.Network's concurrent-use guard), so they parallelize freely
// across a worker pool. Results are assembled in cell order and every
// cell seed is a pure function of the experiment's indices, which makes
// parallel output byte-identical to serial output for any worker count.
package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mcastsim/internal/mcast"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/traffic"
	"mcastsim/internal/updown"
)

// Seed-derivation salts. Every cell seed is rng.Mix(cfg.Seed, salt,
// indices...) — one salt per cell family, so no two grids of the same
// experiment can alias, and never additive arithmetic like seed+i*7919
// (stride collisions) or seed+i (outright stream overlap for adjacent
// topologies). Traffic seeds are salted by topology index only, not by
// sweep value or scheme: every scheme and every sweep point sees the same
// multicast draws on a given topology, the paired design the serial
// harness always had. The fault sweep's salts live at its call sites
// (0xfa11 / 0x5eed, joined by probe and failure-count indices).
const (
	saltFamily uint64 = 0xfa3117e5 // per-sweep-point topology families
	saltSingle uint64 = 0x51e67e   // isolated-multicast traffic cells
	saltLoad   uint64 = 0x10adce11 // open-loop load traffic cells
	saltMixed  uint64 = 0x3a1d     // mixed multicast/unicast cells
	saltColl   uint64 = 0xc0117    // collective-operation cells
	saltArch   uint64 = 0xa2c8     // arch-comparison planning probes
)

// workerCount resolves Config.Workers: 0 (or negative) means one worker
// per available CPU.
func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runCells executes n independent cells across at most cfg.workerCount()
// goroutines and returns their results in cell order. On error the pool
// cancels: cells not yet started are skipped, in-flight cells finish,
// and the error of the lowest-indexed failed cell is returned (with one
// worker that is exactly the serial first error). A worker count of one
// degenerates to a plain loop, so `-workers 1` is the serial harness.
//
// runCells owns each cell's telemetry: the cell asks its cellCtx for a
// recorder, and when the cell succeeds its bundle is committed to
// cfg.Obs. When cfg.Checkpoint is set, every completed cell is journaled
// with its bundle, and already-journaled cells return their recorded
// results (re-committing their bundles) without executing. With
// telemetry on, a cell journaled at another cadence or without
// telemetry reruns, so the sink gets the bundle this run would record.
// Resumed output is byte-identical because cell seeds are pure
// functions of cell indices and gob round-trips are bit-exact.
func runCells[T any](cfg Config, n int, cell func(i int, cc *cellCtx) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	ck := cfg.Checkpoint
	call := 0
	if ck != nil {
		call = ck.nextCall()
	}
	every := cfg.Obs.every()
	var prog atomic.Int64
	tick := func() {
		if cfg.Progress != nil {
			cfg.Progress(int(prog.Add(1)), n)
		}
	}
	runOne := func(i int) (T, error) {
		if ck != nil {
			v, rec, err := ckLoad[T](ck, call, i)
			if err != nil {
				return v, err
			}
			if rec != nil && (cfg.Obs == nil || rec.Every == every) {
				if cfg.Obs != nil && rec.Bundle != nil {
					cfg.Obs.add(*rec.Bundle)
				}
				tick()
				return v, nil
			}
			if e := ck.stopError(); e != nil {
				var zero T
				return zero, e
			}
		}
		cc := cellCtx{sink: cfg.Obs}
		v, err := cell(i, &cc)
		if err != nil {
			return v, err
		}
		b := cc.bundle()
		if ck != nil {
			rec := journalRecord{Call: call, Cell: i, Every: every, Bundle: b}
			if err := ckStore(ck, rec, v); err != nil {
				return v, err
			}
		}
		if b != nil {
			cfg.Obs.add(*b)
		}
		tick()
		return v, nil
	}
	workers := cfg.workerCount()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := runOne(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := runOne(i)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return out, nil
}

// loadCurveSpec describes one latency-vs-load curve: a scheme swept over
// cfg.Loads on one routed family. ErrCtx names the curve's sweep context
// in error messages (the series label alone rarely identifies a panel).
type loadCurveSpec struct {
	Label  string
	ErrCtx string
	Scheme mcast.Scheme
	Rts    []*updown.Routing
	Params sim.Params
	Degree int
	Flits  int
}

// runLoadCurves sweeps cfg.Loads for every spec, fanning out across the
// topology family within each load point while keeping each curve's
// points strictly ordered (the saturation early-exit is sequential, as
// in the paper's sweeps). Curves advance in lockstep so independent
// curves' cells share one worker pool per load point; a curve drops out
// of the lockstep once it saturates. The returned series align with
// specs.
//
// Saturation reporting: a point where no topology completed a single
// message has no latency to plot — its Y is NaN (rendered as "-") and
// the "SAT" note stands alone, instead of the misleading latency 0 the
// old harness emitted from metrics.Mean(nil).
func runLoadCurves(cfg Config, specs []loadCurveSpec) ([]metrics.Series, error) {
	series := make([]metrics.Series, len(specs))
	done := make([]bool, len(specs))
	for i, sp := range specs {
		series[i].Label = sp.Label
	}
	for _, l := range cfg.Loads {
		type key struct{ ci, ti int }
		var keys []key
		for ci, sp := range specs {
			if done[ci] {
				continue
			}
			for ti := range sp.Rts {
				keys = append(keys, key{ci, ti})
			}
		}
		if len(keys) == 0 {
			break
		}
		res, err := runCells(cfg, len(keys), func(i int, cc *cellCtx) (traffic.LoadResult, error) {
			k := keys[i]
			sp := specs[k.ci]
			rec := cc.recorder(fmt.Sprintf("load/%s%s/l=%v/topo%03d",
				sp.Label, sp.ErrCtx, l, k.ti))
			r, err := traffic.Run(sp.Rts[k.ti], traffic.Workload{
				Scheme: sp.Scheme, Params: sp.Params, Degree: sp.Degree,
				MsgFlits: sp.Flits,
				Seed:     rng.Mix(cfg.Seed, saltLoad, uint64(k.ti)),
			}, traffic.WithLoad(traffic.LoadSpec{
				EffectiveLoad: l,
				Warmup:        cfg.Warmup, Measure: cfg.Measure, Drain: cfg.Drain,
			}), traffic.WithObs(rec))
			if err != nil {
				return traffic.LoadResult{}, fmt.Errorf("%s%s at load %v (topology %d): %w", sp.Label, sp.ErrCtx, l, k.ti, err)
			}
			return *r.Load, nil
		})
		if err != nil {
			return nil, err
		}
		// Group cell results per curve; keys are ordered (curve, topology),
		// so each group arrives in topology order and aggregation matches
		// the serial harness float-op for float-op.
		start := 0
		for ci, sp := range specs {
			if done[ci] {
				continue
			}
			var means []float64
			saturated := false
			for ti := range sp.Rts {
				r := res[start+ti]
				if r.Saturated {
					saturated = true
				}
				if r.Latency.Count > 0 {
					means = append(means, r.Latency.Mean)
				}
			}
			start += len(sp.Rts)
			s := &series[ci]
			s.X = append(s.X, l)
			if len(means) > 0 {
				s.Y = append(s.Y, metrics.Mean(means))
			} else {
				s.Y = append(s.Y, math.NaN())
			}
			note := ""
			if saturated {
				note = "SAT"
				done[ci] = true
			}
			s.Note = append(s.Note, note)
		}
	}
	return series, nil
}
