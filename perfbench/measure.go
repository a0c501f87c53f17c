package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"mcastsim/internal/memwatch"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	// tiny shrinks every workload to test size for the self-test, which
	// also passes its own expect: digests by workload, in place of
	// expectedDigests (recorded at full size).
	tiny   bool
	expect map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Set-up is repeated at least minSetupReps times and until setupBudget
// has passed, and reported as the median.
const (
	minSetupReps = 5
	maxSetupReps = 200
	setupBudget  = 500 * time.Millisecond
)

// phase is one timed closed loop of ops.
type phase struct {
	results []opResult
	times   []float64 // seconds per call
	peaks   []float64 // HeapAlloc high-water mark per call, bytes
	refs    []float64 // reference kernel runs, seconds
	wall    float64   // seconds
}

func (p *phase) ops() int {
	n := 0
	for _, r := range p.results {
		n += r.ops
	}
	return n
}

// opsPerSec is ops per host second: from the median call time when ops
// run one at a time (per-op times spread too much for the mean), from the
// total call time when a call is a parallel sweep of many ops.
func (p *phase) opsPerSec(w workload) float64 {
	if w.workers == 1 {
		return 1 / median(p.times)
	}
	return float64(p.ops()) / sumOf(p.times)
}

// slowdown is how much slower the host ran the reference kernel during
// the phase than at nominal speed (see refNominal).
func (p *phase) slowdown() float64 { return median(p.refs) / refNominal.Seconds() }

// checker counts failed ops: an op fails on an error or when its digest
// differs from the expected one (the recorded digest at the default seed,
// otherwise the first op's).
type checker struct {
	want      string
	attempted int
	failed    int
}

func (c *checker) check(name string, res opResult, err error) {
	n := max(res.ops, 1)
	c.attempted += n
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: op failed: %v\n", name, err)
		c.failed += n
		return
	}
	got := hexDigest(res.digest)
	if c.want == "" {
		c.want = got
		fmt.Fprintf(os.Stderr, "%s: digest %s\n", name, got)
	}
	if got != c.want {
		fmt.Fprintf(os.Stderr, "%s: digest %s, want %s\n", name, got, c.want)
		c.failed += n
	}
}

// loop runs ops until seconds have passed (at least one call), and the
// reference kernel before the first op and then about every refEvery.
func loop(w workload, b bench, tr *tracer, c *checker, seconds float64) phase {
	p := phase{refs: []float64{refKernel()}}
	start, lastRef := time.Now(), time.Now()
	for i := 0; ; i++ {
		tr.setOp(i)
		watch := memwatch.Start()
		t0 := time.Now()
		res, err := b.op(tr)
		p.times = append(p.times, time.Since(t0).Seconds())
		p.peaks = append(p.peaks, float64(watch.Stop()))
		c.check(w.name, res, err)
		p.refs = append(p.refs, res.refs...)
		if err == nil {
			p.results = append(p.results, res)
		}
		if time.Since(lastRef) >= refEvery {
			p.refs = append(p.refs, refKernel())
			lastRef = time.Now()
		}
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	p.wall = time.Since(start).Seconds()
	tr.setOp(-1)
	return p
}

func measure(cfg runConfig) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	expect := cfg.expect
	if expect == nil {
		seed := cfg.seed
		if w.fixed {
			seed = defaultSeed
		}
		expect = expectedDigests[seed]
	}
	c := &checker{want: expect[w.name]}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var b bench
	var setups []float64
	setupRefs := []float64{refKernel()}
	for start := time.Now(); len(setups) < minSetupReps ||
		(len(setups) < maxSetupReps && time.Since(start) < setupBudget); {
		b = nil // let the previous inputs be collected during this set-up
		t0 := time.Now()
		b, err = w.setup(cfg.seed, cfg.tiny, tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	setupRefs = append(setupRefs, refKernel())

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // half untraced, half traced
	}
	if w.warmup {
		res, err := b.op(nil)
		c.check(w.name, res, err)
	}
	plain := loop(w, b, nil, c, seconds)
	rep := &report{}
	if !cfg.trace {
		// Times at nominal host speed (see refNominal).
		rep.Metrics = map[string]metric{
			"setup_s":            {median(setups) * refNominal.Seconds() / median(setupRefs), "s"},
			"ops_per_s":          {plain.opsPerSec(w) * plain.slowdown(), "1/s"},
			"peak_heap_mb":       {median(plain.peaks) / 1e6, "MB"},
			"ok_frac":            {1 - float64(c.failed)/float64(c.attempted), "ratio"},
			"sim_latency_cycles": {medianLatency(plain.results), "cycles"},
		}
	} else {
		traced, prof, usage, err := tracedLoop(w, b, tr, c, seconds)
		if err != nil {
			return nil, err
		}
		rep.Metrics = layerMetrics(w, tr, len(setups), plain, traced, prof, usage)
		name := fmt.Sprintf("%s-seed%d", w.name, cfg.seed)
		if err := tr.write(filepath.Join(cfg.traceDir, name+".spans.jsonl")); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(cfg.traceDir, name+".cpu.pprof"), prof, 0o644); err != nil {
			return nil, err
		}
	}
	// A metric without samples (every op failed, or a layer the workload
	// does not reach) reads 0; JSON has no NaN.
	for name, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.Metrics[name] = metric{0, v.Unit}
		}
	}
	rep.Attempted, rep.Failed = c.attempted, c.failed
	rep.Correct = c.failed == 0
	fmt.Fprintf(os.Stderr, "%s seed %d: %d set-ups, %d calls in %.1fs, %.4g ops/s raw, reference kernel %.2f ms, %d/%d ops failed\n",
		w.name, cfg.seed, len(setups), len(plain.times), plain.wall, plain.opsPerSec(w),
		median(plain.refs)*1e3, c.failed, c.attempted)
	return rep, nil
}

// usage is the process resource use over the traced phase.
type usage struct {
	cpu            float64 // user+system seconds
	mallocs, bytes uint64
	gcs            uint32
	gcPause        uint64 // ns
}

// tracedLoop runs the traced phase under a CPU profile and returns the
// phase, the gzipped profile and the resource deltas.
func tracedLoop(w workload, b bench, tr *tracer, c *checker, seconds float64) (phase, []byte, usage, error) {
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return phase{}, nil, usage{}, err
	}
	p := loop(w, b, tr, c, seconds)
	pprof.StopCPUProfile()
	u := usage{cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&ms1)
	u.mallocs = ms1.Mallocs - ms0.Mallocs
	u.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	u.gcs = ms1.NumGC - ms0.NumGC
	u.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	return p, prof.Bytes(), u, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(w workload, tr *tracer, setups int, plain, traced phase, prof []byte, u usage) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ops := float64(max(traced.ops(), 1))

	var topoMS []float64
	for _, name := range []string{"topology.Generate", "topology.GenerateFamily", "topology.FatTree"} {
		topoMS = append(topoMS, tr.durations(name)...)
	}
	set("topology.build_ms", median(topoMS), "ms")
	set("updown.build_ms", median(tr.durations("updown.New")), "ms")
	set("updown.live_mb", median(tr.liveMB), "MB")

	planUS := scale(tr.durations("Scheme.Plan"), 1e3)
	set("mcast.plans", float64(tr.count("Scheme.Plan", false))/float64(setups)+
		float64(tr.count("Scheme.Plan", true))/ops, "count")
	set("mcast.plan_us_p50", median(planUS), "us")
	set("mcast.plan_us_tail", tail(planUS), "us")
	set("mcast.plan_allocs", mean(tr.planAllocs), "count")

	var events, hops, msgs, pkts int64
	for _, r := range traced.results {
		events += r.events
		hops += r.flitHops
		msgs += r.msgs
		pkts += r.pktsToHost
	}
	if events == 0 { // networks hidden by a harness: read the obs series
		events, hops = tr.obs.events, tr.obs.flitHops
	}
	// Host time spent simulating: Drain where the benchmark calls it,
	// else the traffic runs, else the CPU time of the harness sweep.
	drainMS := tr.durations("sim.Drain")
	simSec := sumOf(drainMS) / 1e3
	if simSec == 0 {
		simSec = sumOf(tr.durations("traffic.Run")) / 1e3
	}
	if simSec == 0 {
		simSec = u.cpu
	}
	set("sim.new_ms", median(tr.durations("sim.New")), "ms")
	set("sim.drain_ms_p50", median(drainMS), "ms")
	set("sim.drain_ms_tail", tail(drainMS), "ms")
	set("sim.events_per_op", float64(events)/ops, "count")
	set("sim.flit_hops_per_op", float64(hops)/ops, "count")
	set("sim.msgs_per_op", float64(msgs)/ops, "count")
	set("sim.events_per_flit_hop", float64(events)/float64(hops), "ratio")
	set("sim.ns_per_event", simSec*1e9/float64(events), "ns")
	set("sim.ns_per_flit_hop", simSec*1e9/float64(hops), "ns")
	set("sim.allocs_per_op", float64(u.mallocs)/ops, "count")
	set("sim.alloc_mb_per_op", float64(u.bytes)/1e6/ops, "MB")

	o := tr.obs
	set("event.events_per_s", float64(events)/simSec, "1/s")
	set("event.far_posts", float64(o.farPosts)/ops, "count")
	set("event.migrations", float64(o.migrations)/ops, "count")
	set("event.queue_len_max", float64(o.queueMax), "count")
	set("event.far_len_max", float64(o.farMax), "count")
	set("switch.flit_hops", float64(hops)/ops, "count")
	set("switch.credit_stalls", float64(o.stalls)/ops, "count")
	set("switch.arb_conflicts", float64(o.conflicts)/ops, "count")
	set("switch.buf_occ_max", float64(o.bufOccMax), "flits")
	set("ni.packets_to_host", float64(pkts)/ops, "count")
	set("ni.deferred", float64(o.deferred)/ops, "count")
	set("ni.send_depth_max", float64(o.sendMax), "count")
	set("ni.recv_depth_max", float64(o.recvMax), "count")

	cellMS := tr.durations("traffic.Run")
	set("traffic.cell_ms_p50", median(cellMS), "ms")
	set("traffic.cell_ms_tail", tail(cellMS), "ms")
	cells := 0.0
	if sweeps := tr.count("experiment.Fig9LoadVsR", true); sweeps > 0 {
		cells = float64(traced.ops()) / float64(sweeps)
	}
	set("experiment.cells", cells, "count")
	set("experiment.cpu_util", u.cpu/(traced.wall*float64(w.workers)), "ratio")
	set("runtime.gc_count", float64(u.gcs)/ops, "count")
	set("runtime.gc_pause_ms", float64(u.gcPause)/1e6/ops, "ms")

	fracs, err := profileFractions(prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
	}
	for _, b := range profileBuckets {
		set("profile."+b+"_frac", fracs[b], "ratio")
	}
	set("host.ops_per_s_raw", plain.opsPerSec(w), "1/s")
	set("host.ref_ms", median(plain.refs)*1e3, "ms")
	set("trace.overhead_frac", 1-(traced.opsPerSec(w)*traced.slowdown())/(plain.opsPerSec(w)*plain.slowdown()), "ratio")
	return m
}

func medianLatency(rs []opResult) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.latency)
	}
	return median(xs)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the highest percentile with at least ten samples above it,
// p(1-10/n), once there are 100 samples; below that, the maximum.
func tail(xs []float64) float64 {
	if len(xs) < 100 {
		return quantile(xs, 1)
	}
	return quantile(xs, 1-10/float64(len(xs)))
}

// quantile interpolates linearly between the order statistics; NaN for
// no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sumOf(xs) / float64(len(xs))
}

func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
