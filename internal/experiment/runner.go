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
	"runtime/debug"
	"slices"
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

// CellPanicError reports a cell that panicked. runCells recovers the
// panic on the goroutine that ran the cell and fails the run with this
// error, so a bug in one cell ends its experiment, not the process.
type CellPanicError struct {
	Cell  int    // the cell's index in its runCells grid
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("experiment: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// runCells executes n independent cells across at most cfg.workerCount()
// goroutines and returns their results in cell order. On error the pool
// cancels: cells not yet started are skipped, in-flight cells finish,
// and the error of the lowest-indexed failed cell is returned (with one
// worker that is exactly the serial first error). A cell that panics
// fails with a *CellPanicError under the same rule. A worker count of
// one degenerates to a plain loop, so `-workers 1` is the serial harness.
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
	runOne := func(i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &CellPanicError{Cell: i, Value: r, Stack: debug.Stack()}
			}
		}()
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
		v, err = cell(i, &cc)
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

// grid lays an experiment's cells out as curve × point × topology and
// runs them all in one runCells pass. topos(c, p) is the number of
// topologies (cells) at curve c, point p; it may be zero. cell runs one
// of them. The results come back indexed [curve][point][topology], so
// every experiment reduces per-topology samples in a fixed order.
func grid[T any](cfg Config, curves, points int, topos func(c, p int) int,
	cell func(c, p, t int, cc *cellCtx) (T, error)) ([][][]T, error) {
	type key struct{ c, p, t int }
	var keys []key
	for c := range curves {
		for p := range points {
			for t := range topos(c, p) {
				keys = append(keys, key{c, p, t})
			}
		}
	}
	res, err := runCells(cfg, len(keys), func(i int, cc *cellCtx) (T, error) {
		k := keys[i]
		return cell(k.c, k.p, k.t, cc)
	})
	if err != nil {
		return nil, err
	}
	out := make([][][]T, curves)
	for c := range out {
		out[c] = make([][]T, points)
	}
	for i, k := range keys {
		out[k.c][k.p] = append(out[k.c][k.p], res[i])
	}
	return out, nil
}

// single is one (curve, point) of an isolated-multicast table: sch on
// the routed family rts. Its cells are labelled
// "<label>/<scheme>/topoNNN".
type single struct {
	label  string
	rts    []*updown.Routing
	sch    mcast.Scheme
	p      sim.Params
	degree int
	flits  int
}

// singleMeans measures isolated-multicast latency for every (curve,
// point) of a table in one grid and returns each one's mean over all its
// topologies' probes, [curve][point]. The cell seed depends only on the
// topology index: every scheme and every point that shares a family
// measures the same multicast draws, the paired design that keeps
// scheme comparisons low-variance.
func singleMeans(cfg Config, curves, points int, at func(c, p int) single) ([][]float64, error) {
	specs := make([][]single, curves)
	for c := range specs {
		specs[c] = make([]single, points)
		for p := range specs[c] {
			specs[c][p] = at(c, p)
		}
	}
	res, err := grid(cfg, curves, points, func(c, p int) int { return len(specs[c][p].rts) },
		func(c, p, t int, cc *cellCtx) ([]float64, error) {
			s := specs[c][p]
			label := fmt.Sprintf("%s/%s/topo%03d", s.label, s.sch.Name(), t)
			r, err := traffic.Run(s.rts[t], traffic.Workload{
				Scheme: s.sch, Params: s.p, Degree: s.degree, MsgFlits: s.flits,
				Seed: rng.Mix(cfg.Seed, saltSingle, uint64(t)),
			}, traffic.WithProbes(cfg.Probes), traffic.WithObs(cc.recorder(label)))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			return r.Latencies, nil
		})
	if err != nil {
		return nil, err
	}
	means := make([][]float64, curves)
	for c := range means {
		means[c] = make([]float64, points)
		for p, lats := range res[c] {
			means[c][p] = pooledMean(lats)
		}
	}
	return means, nil
}

// pooledMean is the mean of every topology's samples taken together, in
// topology order.
func pooledMean(perTopo [][]float64) float64 {
	var all []float64
	for _, s := range perTopo {
		all = append(all, s...)
	}
	return metrics.Mean(all)
}

// loadCurveSpec describes one latency-vs-load curve: a scheme swept over
// cfg.Loads on one routed family. Its cells are labelled
// "<Cell>/l=<load>/topoNNN".
type loadCurveSpec struct {
	Label  string
	Cell   string
	Scheme mcast.Scheme
	Rts    []*updown.Routing
	Params sim.Params
	Degree int
	Flits  int
}

// loadSweep sweeps cfg.Loads for every spec and returns each curve's
// per-topology results, [curve][point][topology]. Each load point is one
// grid over the curves still running × their topologies, so independent
// curves share one worker pool per point while each curve's points stay
// strictly ordered: a curve ends at its first saturated point, as in the
// paper's sweeps.
func loadSweep(cfg Config, specs []loadCurveSpec) ([][][]traffic.LoadResult, error) {
	out := make([][][]traffic.LoadResult, len(specs))
	done := make([]bool, len(specs))
	for _, l := range cfg.Loads {
		if !slices.Contains(done, false) {
			break
		}
		res, err := grid(cfg, len(specs), 1, func(c, _ int) int {
			if done[c] {
				return 0
			}
			return len(specs[c].Rts)
		}, func(c, _, t int, cc *cellCtx) (traffic.LoadResult, error) {
			sp := specs[c]
			label := fmt.Sprintf("%s/l=%v/topo%03d", sp.Cell, l, t)
			r, err := traffic.Run(sp.Rts[t], traffic.Workload{
				Scheme: sp.Scheme, Params: sp.Params, Degree: sp.Degree,
				MsgFlits: sp.Flits,
				Seed:     rng.Mix(cfg.Seed, saltLoad, uint64(t)),
			}, traffic.WithLoad(traffic.LoadSpec{
				EffectiveLoad: l,
				Warmup:        cfg.Warmup, Measure: cfg.Measure, Drain: cfg.Drain,
			}), traffic.WithObs(cc.recorder(label)))
			if err != nil {
				return traffic.LoadResult{}, fmt.Errorf("%s: %w", label, err)
			}
			return *r.Load, nil
		})
		if err != nil {
			return nil, err
		}
		for c := range specs {
			if done[c] {
				continue
			}
			out[c] = append(out[c], res[c][0])
			done[c] = saturated(res[c][0])
		}
	}
	return out, nil
}

// saturated reports whether any topology saturated at a load point.
func saturated(pt []traffic.LoadResult) bool {
	return slices.ContainsFunc(pt, func(r traffic.LoadResult) bool { return r.Saturated })
}

// loadLatency reduces one curve's sweep to its latency series: a point's
// Y is the mean over topologies of each topology's mean latency, and a
// saturated point is noted "SAT". A point where no topology completed a
// single message has no latency to plot: its Y is NaN (rendered "-"),
// not the misleading 0 of metrics.Mean(nil).
func loadLatency(label string, loads []float64, pts [][]traffic.LoadResult) metrics.Series {
	s := metrics.Series{Label: label}
	for i, pt := range pts {
		var means []float64
		for _, r := range pt {
			if r.Latency.Count > 0 {
				means = append(means, r.Latency.Mean)
			}
		}
		y, note := math.NaN(), ""
		if len(means) > 0 {
			y = metrics.Mean(means)
		}
		if saturated(pt) {
			note = "SAT"
		}
		s.X = append(s.X, loads[i])
		s.Y = append(s.Y, y)
		s.Note = append(s.Note, note)
	}
	return s
}

// runLoadCurves sweeps every spec (loadSweep) and returns their latency
// series, aligned with specs.
func runLoadCurves(cfg Config, specs []loadCurveSpec) ([]metrics.Series, error) {
	res, err := loadSweep(cfg, specs)
	if err != nil {
		return nil, err
	}
	series := make([]metrics.Series, len(specs))
	for c, sp := range specs {
		series[c] = loadLatency(sp.Label, cfg.Loads, res[c])
	}
	return series, nil
}
