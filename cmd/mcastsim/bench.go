package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcastsim/internal/benchcase"
	"mcastsim/internal/memwatch"
)

// benchMetrics is one benchmark measurement in BENCH_PR4.json.
type benchMetrics struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	// PeakHeapBytes is the process-wide HeapAlloc high-water mark sampled
	// while the benchmark ran (internal/memwatch) — the "does it fit in
	// RAM" axis of the trajectory, added in PR 9. Absent from references
	// that predate it, in which case the gate skips its memory rule.
	PeakHeapBytes float64 `json:"peak_heap_bytes,omitempty"`
	Iterations    int     `json:"iterations"`
}

// benchRecord pairs a current measurement with the frozen pre-optimization
// baseline for one benchmark.
type benchRecord struct {
	Baseline benchMetrics `json:"baseline"`
	Current  benchMetrics `json:"current"`
	// SpeedupEventsPerSec is current/baseline scheduler throughput (the
	// PR 4 acceptance metric on TreeStorm, target >= 1.5);
	// SpeedupWallClock is the plain ns/op ratio.
	SpeedupEventsPerSec float64 `json:"speedup_events_per_sec,omitempty"`
	SpeedupWallClock    float64 `json:"speedup_wall_clock"`
	// AllocReduction is 1 - current/baseline allocs/op (the PR 4
	// acceptance metric on DrainLarge, target >= 0.30).
	AllocReduction float64 `json:"alloc_reduction,omitempty"`
}

// benchFile is the whole BENCH_PR4.json document (and the shape of the
// committed BENCH_PR3.json the -bench-gate flag reads back).
type benchFile struct {
	Note       string                 `json:"note"`
	Benchmarks map[string]benchRecord `json:"benchmarks"`
}

// Baselines freeze the numbers measured on the reference box immediately
// before the PR 4 route cache and free lists landed: the PR 3 engine
// (typed-event calendar queue) recomputing every routing decision and
// allocating every worm/branch/occupant fresh. DrainLarge/SweepParallel
// carry over BENCH_PR3.json's "current" values; TreeStorm was measured on
// the same engine when the benchmark was added. TreeStorm's events/op has
// since grown ~0.9% (branch-reclaim quarantine events); the events/sec
// ratio absorbs that, it does not flatter it.
var (
	treeStormBaseline = benchMetrics{
		NsPerOp:      205.2e6,
		AllocsPerOp:  513_547,
		BytesPerOp:   57_898_475,
		EventsPerSec: 12.0e6,
		EventsPerOp:  2_469_481,
		Iterations:   5,
	}
	drainLargeBaseline = benchMetrics{
		NsPerOp:      151.8e6,
		AllocsPerOp:  94_374,
		BytesPerOp:   10_569_708,
		EventsPerSec: 16.8e6,
		EventsPerOp:  2_552_335,
		Iterations:   7,
	}
	sweepParallelBaseline = benchMetrics{
		NsPerOp:    2.54e9,
		Iterations: 1,
	}
	// Frozen at introduction (PR 7, scale sweep). The throughput field
	// carries each benchmark's own rate metric: headers/sec for
	// HeaderEncode, switches/sec for TopologyGen.
	headerEncodeBaseline = benchMetrics{
		NsPerOp:      10_868,
		EventsPerSec: 184_028,
		Iterations:   220_412,
	}
	topologyGenBaseline = benchMetrics{
		NsPerOp:      80.6e6,
		AllocsPerOp:  32_577,
		BytesPerOp:   105_692_220,
		EventsPerSec: 13_500,
		Iterations:   27,
	}
	// Frozen at introduction (PR 9, sparse destination sets): the
	// run-coded hot path on the 101k-host fat-tree, measured on the
	// reference box the day the families landed. Peak-heap baselines
	// start here too — earlier baselines predate the field. ScaleSim's
	// baseline was measured on the since-removed 4-shard
	// serial-equivalence engine; the family now runs on the one queue.
	sparseStormBaseline = benchMetrics{
		NsPerOp:       335.6e6,
		AllocsPerOp:   1_337_890,
		BytesPerOp:    92_929_749,
		EventsPerSec:  7.21e6,
		EventsPerOp:   2_418_888,
		PeakHeapBytes: 235e6,
		Iterations:    3,
	}
	scaleSimBaseline = benchMetrics{
		NsPerOp:       211.6e6,
		AllocsPerOp:   1_327_182,
		BytesPerOp:    85_887_888,
		EventsPerSec:  1.71e6,
		EventsPerOp:   362_728,
		PeakHeapBytes: 237e6,
		Iterations:    5,
	}
)

func measure(f func(b *testing.B)) benchMetrics {
	return measureRate(f, "events/sec")
}

// measureRate runs f once through testing.Benchmark, reading the named
// custom metric into the throughput field (different benchmarks report
// different rates; the gate only ever compares like against like). A
// memwatch sampler brackets the whole run, so PeakHeapBytes covers every
// probe round including setup — the resident cost of running the
// workload at all, not just the steady state.
func measureRate(f func(b *testing.B), rateKey string) benchMetrics {
	mw := memwatch.Start()
	r := testing.Benchmark(f)
	peak := mw.Stop()
	m := benchMetrics{
		NsPerOp:       float64(r.NsPerOp()),
		AllocsPerOp:   float64(r.AllocsPerOp()),
		BytesPerOp:    float64(r.AllocedBytesPerOp()),
		EventsPerSec:  r.Extra[rateKey],
		EventsPerOp:   r.Extra["events/op"],
		PeakHeapBytes: float64(peak),
		Iterations:    r.N,
	}
	return m
}

func record(baseline, current benchMetrics) benchRecord {
	rec := benchRecord{
		Baseline:         baseline,
		Current:          current,
		SpeedupWallClock: baseline.NsPerOp / current.NsPerOp,
	}
	if baseline.EventsPerSec > 0 && current.EventsPerSec > 0 {
		rec.SpeedupEventsPerSec = current.EventsPerSec / baseline.EventsPerSec
	}
	if baseline.AllocsPerOp > 0 {
		rec.AllocReduction = 1 - current.AllocsPerOp/baseline.AllocsPerOp
	}
	return rec
}

// runEmitBench measures the benchcase workloads with testing.Benchmark and
// writes BENCH_PR8.json-format results to path. When gatePath names a
// committed reference file (or is "auto", which resolves to the newest
// committed BENCH_*.json beside the output), checkGate fails the run on
// order-of-magnitude regressions.
func runEmitBench(path, gatePath string) error {
	fmt.Fprintln(os.Stderr, "mcastsim: measuring TreeStorm...")
	tree := measure(benchcase.TreeStorm)
	fmt.Fprintln(os.Stderr, "mcastsim: measuring DrainLarge...")
	drain := measure(benchcase.DrainLarge)
	fmt.Fprintln(os.Stderr, "mcastsim: measuring SweepParallel...")
	sweep := measure(benchcase.SweepParallel)
	fmt.Fprintln(os.Stderr, "mcastsim: measuring HeaderEncode...")
	hdr := measureRate(benchcase.HeaderEncode, "headers/sec")
	fmt.Fprintln(os.Stderr, "mcastsim: measuring TopologyGen...")
	topo := measureRate(benchcase.TopologyGen, "switches/sec")
	fmt.Fprintln(os.Stderr, "mcastsim: measuring SparseStorm...")
	sparse := measure(benchcase.SparseStorm)
	fmt.Fprintln(os.Stderr, "mcastsim: measuring ScaleSim...")
	scale := measure(benchcase.ScaleSim)

	out := benchFile{
		Note: "PR 9 sparse-destination-set benchmarks; SparseStorm/ScaleSim baselines frozen on the run-coded hot path at introduction, peak_heap_bytes joins the trajectory here, earlier baselines carried over from their introducing PRs",
		Benchmarks: map[string]benchRecord{
			"TreeStorm":     record(treeStormBaseline, tree),
			"DrainLarge":    record(drainLargeBaseline, drain),
			"SweepParallel": record(sweepParallelBaseline, sweep),
			"HeaderEncode":  record(headerEncodeBaseline, hdr),
			"TopologyGen":   record(topologyGenBaseline, topo),
			"SparseStorm":   record(sparseStormBaseline, sparse),
			"ScaleSim":      record(scaleSimBaseline, scale),
		},
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: TreeStorm %.1f ms/op, %.3gM events/sec (%.2fx baseline)\n",
		path, tree.NsPerOp/1e6, tree.EventsPerSec/1e6,
		tree.EventsPerSec/treeStormBaseline.EventsPerSec)

	if gatePath != "" {
		resolved, err := resolveGatePath(gatePath, path)
		if err != nil {
			return err
		}
		return checkGate(resolved, map[string]benchMetrics{
			"TreeStorm":     tree,
			"DrainLarge":    drain,
			"SweepParallel": sweep,
			"HeaderEncode":  hdr,
			"TopologyGen":   topo,
			"SparseStorm":   sparse,
			"ScaleSim":      scale,
		})
	}
	return nil
}

// resolveGatePath turns the -bench-gate value into a concrete reference
// file. Anything but the literal "auto" passes through untouched. "auto"
// picks the newest committed reference: the BENCH_*.json beside the
// output file with the highest trailing PR number, excluding the file
// being written (a stale copy of the new artifact must never gate
// itself).
func resolveGatePath(gatePath, emitPath string) (string, error) {
	if gatePath != "auto" {
		return gatePath, nil
	}
	dir := filepath.Dir(emitPath)
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", fmt.Errorf("bench gate: %w", err)
	}
	best, bestNum := "", -1
	for _, m := range matches {
		if filepath.Clean(m) == filepath.Clean(emitPath) {
			continue
		}
		if num, ok := benchFileNumber(filepath.Base(m)); ok && num > bestNum {
			best, bestNum = m, num
		}
	}
	if best == "" {
		return "", fmt.Errorf("bench gate: auto found no BENCH_*.json reference in %s", dir)
	}
	fmt.Printf("bench gate: auto-selected %s\n", best)
	return best, nil
}

// benchFileNumber extracts the PR number from a reference filename like
// BENCH_PR4.json; the second return is false for names with no trailing
// integer before the extension.
func benchFileNumber(name string) (int, bool) {
	s := strings.TrimSuffix(name, ".json")
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return 0, false
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// checkGate compares fresh measurements against the "current" values of a
// committed reference file. The 2x tolerance is deliberately generous —
// shared CI runners are noisy — so only order-of-magnitude regressions
// (a dropped cache, a reintroduced per-event allocation) trip it.
func checkGate(gatePath string, current map[string]benchMetrics) error {
	data, err := os.ReadFile(gatePath)
	if err != nil {
		return fmt.Errorf("bench gate: %w", err)
	}
	var ref benchFile
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("bench gate: parse %s: %w", gatePath, err)
	}
	const tolerance = 2.0
	var failures []string
	for name, cur := range current {
		rec, ok := ref.Benchmarks[name]
		if !ok {
			continue // reference predates this benchmark
		}
		want := rec.Current
		if want.EventsPerSec > 0 && cur.EventsPerSec < want.EventsPerSec/tolerance {
			failures = append(failures, fmt.Sprintf(
				"%s: events/sec %.3g fell below %.3g (reference %.3g / %gx)",
				name, cur.EventsPerSec, want.EventsPerSec/tolerance, want.EventsPerSec, tolerance))
		}
		if want.AllocsPerOp > 0 && cur.AllocsPerOp > want.AllocsPerOp*tolerance {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %.0f exceeded %.0f (reference %.0f * %gx)",
				name, cur.AllocsPerOp, want.AllocsPerOp*tolerance, want.AllocsPerOp, tolerance))
		}
		// Memory joins the trajectory in PR 9; references that predate
		// the field (zero peak) skip the rule rather than fail it.
		if want.PeakHeapBytes > 0 && cur.PeakHeapBytes > want.PeakHeapBytes*tolerance {
			failures = append(failures, fmt.Sprintf(
				"%s: peak heap %.3g MB exceeded %.3g MB (reference %.3g MB * %gx)",
				name, cur.PeakHeapBytes/1e6, want.PeakHeapBytes*tolerance/1e6,
				want.PeakHeapBytes/1e6, tolerance))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "mcastsim: bench gate:", f)
		}
		return fmt.Errorf("bench gate: %d regression(s) against %s", len(failures), gatePath)
	}
	fmt.Printf("bench gate passed against %s (%gx tolerance)\n", gatePath, tolerance)
	return nil
}
