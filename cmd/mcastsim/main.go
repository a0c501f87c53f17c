// Command mcastsim runs the paper's experiments and prints their tables.
//
// Usage:
//
//	mcastsim -exp fig6                 # one experiment, quick scale
//	mcastsim -exp fig9 -full           # paper scale (1M-cycle load runs)
//	mcastsim -exp fig9 -workers 4      # cap the cell work pool (same output)
//	mcastsim -exp all -csv out/        # everything, CSV files per table
//	mcastsim -list                     # experiment catalogue
//	mcastsim -compare net.topo -degree 16   # scheme comparison on a
//	                                        # topogen-format topology
//	mcastsim -exp all -full -checkpoint ck/ # journal cells; kill + rerun
//	mcastsim -exp all -full -resume ck/     #   with -resume to continue
//	mcastsim serve -addr :8029 -checkpoint ck/  # long-run HTTP service
//
// Experiment IDs map to the paper's figures and text experiments; see
// DESIGN.md §4 and `mcastsim -list`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mcastsim/internal/core"
	"mcastsim/internal/event"
	"mcastsim/internal/experiment"
	"mcastsim/internal/metrics"
	"mcastsim/internal/obs"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
)

func main() { os.Exit(run()) }

// run is main's body with exit codes returned instead of called, so the
// deferred profile writers fire on every path, including failures.
func run() int {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		return runServe(os.Args[2:])
	}
	var (
		expID      = flag.String("exp", "", "experiment id (or 'all')")
		list       = flag.Bool("list", false, "list experiments and exit")
		full       = flag.Bool("full", false, "paper-scale runs (slow) instead of quick")
		seed       = flag.Uint64("seed", 0, "override the experiment seed (0 = default)")
		workers    = flag.Int("workers", 0, "parallel simulation-cell workers (0 = one per CPU); output is identical for any value")
		simL       = flag.Bool("sim-l", false, "flit-simulate the scale sweep's L and XL tiers (one probe per cell) instead of plan+encode only")
		tiers      = flag.String("tiers", "", "comma-separated scale-sweep size tiers (S,M,L,XL); empty = S,M,L. The ~1M-host XL tier is opt-in: each XL routing holds 7.5-20.9 MB of run-coded reachability, and the XL grid with -sim-l peaks at ~0.86 GB")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		compare    = flag.String("compare", "", "run a scheme comparison on this topology file instead of an experiment")
		degree     = flag.Int("degree", 16, "multicast degree for -compare")
		flits      = flag.Int("flits", 128, "message flits for -compare")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when the run finishes")
		obsOn      = flag.Bool("obs", false, "sample per-cell telemetry (link utilization, buffer occupancy, queue depths) during -exp runs")
		obsEvery   = flag.Uint64("obs-every", uint64(obs.DefaultEvery), "telemetry sampling cadence in cycles (with -obs)")
		obsOut     = flag.String("obs-out", "", "write sampled telemetry bundles to this file as JSONL (with -obs)")
		ckDir      = flag.String("checkpoint", "", "journal completed simulation cells, with their -obs telemetry, into this directory; rerunning with the same directory and arguments resumes, and resumed tables and telemetry are byte-identical")
		resumeDir  = flag.String("resume", "", "resume from this checkpoint directory (must already exist); same journaling as -checkpoint, and a journal written under other arguments is refused with exit 2")
		stopCells  = flag.Int("stop-after-cells", 0, "with -checkpoint: stop with a resumable journal after N newly-completed cells (deterministic kill stand-in for smokes)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcastsim:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "mcastsim:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeMemProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "mcastsim:", err)
			}
		}()
	}

	if *list {
		fmt.Println("available experiments:")
		for _, e := range experiment.Registry() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Paper)
		}
		return 0
	}
	if *compare != "" {
		if err := runCompare(*compare, *degree, *flits, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "mcastsim:", err)
			return 1
		}
		return 0
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "mcastsim: -exp required (try -list)")
		return 2
	}

	cfg := experiment.Quick()
	if *full {
		cfg = experiment.Full()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	cfg.SimulateL = *simL
	if *tiers != "" {
		cfg.Tiers = strings.Split(*tiers, ",")
	}
	if err := obs.CheckEvery(*obsEvery); err != nil {
		fmt.Fprintln(os.Stderr, "mcastsim: -obs-every:", err)
		return 2
	}
	var sink *experiment.ObsSink
	if *obsOn {
		sink = &experiment.ObsSink{Config: obs.Config{Every: event.Time(*obsEvery)}}
		cfg.Obs = sink
	}
	var entries []experiment.Entry
	if *expID == "all" {
		entries = experiment.Registry()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, err := experiment.Lookup(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			entries = append(entries, e)
		}
	}

	dir := *ckDir
	if *resumeDir != "" {
		if _, err := os.Stat(*resumeDir); err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: -resume: %v\n", err)
			return 2
		}
		dir = *resumeDir
	}
	var ck *experiment.Checkpointer
	if dir != "" {
		ids := make([]string, len(entries))
		for i, e := range entries {
			ids[i] = e.ID
		}
		var err error
		ck, err = experiment.OpenCheckpointer(dir, ids, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcastsim:", err)
			var mismatch *experiment.JournalMismatchError
			if errors.As(err, &mismatch) {
				return 2 // another run's journal: nothing ran
			}
			return 1
		}
		defer ck.Close() // for early returns; success checks Close below
		if *stopCells > 0 {
			ck.StopAfter(*stopCells)
		}
		cfg.Checkpoint = ck
		// SIGTERM/SIGINT drain to the journal at the next cell boundary
		// instead of dying mid-run; a hard kill is also safe (the journal
		// tolerates a torn final record), it just loses the last cell.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		go func() {
			if _, ok := <-sig; ok {
				fmt.Fprintln(os.Stderr, "mcastsim: draining to checkpoint...")
				ck.Interrupt()
			}
		}()
	}

	seen := map[string]bool{}
	for _, e := range entries {
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastsim: %s: %v\n", e.ID, err)
			var intr *experiment.Interrupted
			if errors.As(err, &intr) {
				return 3 // resumable: rerun with -resume <dir>
			}
			return 1
		}
		for ti, tab := range tables {
			if err := tab.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, e.ID, ti, tab); err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 1
				}
			}
		}
		if sink != nil {
			printBusiestHeatmap(sink, seen)
		}
		fmt.Printf("[%s done in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if sink != nil && *obsOut != "" {
		if err := writeObs(*obsOut, sink.Bundles()); err != nil {
			fmt.Fprintln(os.Stderr, "mcastsim:", err)
			return 1
		}
	}
	if ck != nil {
		// A journal that did not reach the disk must not pass for a
		// complete run.
		if err := ck.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mcastsim:", err)
			return 1
		}
	}
	return 0
}

// printBusiestHeatmap renders a link-utilization heatmap for the busiest
// telemetry cell that arrived since the previous call (so each experiment
// in a multi-experiment run shows its own hottest cell exactly once).
func printBusiestHeatmap(sink *experiment.ObsSink, seen map[string]bool) {
	var best *obs.Bundle
	bundles := sink.Bundles()
	for i := range bundles {
		b := &bundles[i]
		if seen[b.Cell] {
			continue
		}
		if best == nil || b.TotalFlits() > best.TotalFlits() {
			best = b
		}
	}
	for i := range bundles {
		seen[bundles[i].Cell] = true
	}
	if best == nil || len(best.Snapshots) == 0 {
		return
	}
	if err := obs.WriteHeatmap(os.Stdout, *best, 0, 0); err != nil {
		fmt.Fprintln(os.Stderr, "mcastsim: heatmap:", err)
		return
	}
	fmt.Println()
}

// writeObs dumps every telemetry bundle to path as JSONL.
func writeObs(path string, bundles []obs.Bundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, bundles); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCompare loads a topogen-format topology and compares every scheme on
// random multicasts over it.
func runCompare(path string, degree, flits int, seed uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	topo, err := topology.ReadText(f)
	if err != nil {
		return err
	}
	sys, err := core.SystemFromTopology(topo, core.Options{Seed: seed})
	if err != nil {
		return err
	}
	if degree >= topo.NumNodes {
		return fmt.Errorf("degree %d with %d nodes", degree, topo.NumNodes)
	}
	r := rng.New(seed + 1)
	picks := r.Sample(topo.NumNodes, degree+1)
	src := topology.NodeID(picks[0])
	dests := make([]topology.NodeID, degree)
	for i, v := range picks[1:] {
		dests[i] = topology.NodeID(v)
	}
	fmt.Printf("%s: %d nodes, %d switches; %d-way multicast from node %d, %d flits\n",
		path, topo.NumNodes, topo.NumSwitches, degree, src, flits)
	results, err := sys.Compare(src, dests, flits)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s\n", "scheme", "latency(cyc)", "latency(µs)")
	for _, res := range results {
		fmt.Printf("%-14s %12d %12.2f\n", res.Scheme, res.Latency, float64(res.LatencyNS)/1000)
	}
	return nil
}

func writeCSV(dir, id string, idx int, tab *metrics.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s_%02d.csv", id, idx))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
