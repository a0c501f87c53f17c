package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mcastsim/internal/mcast/binomial"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
)

func TestRunCellsOrderStable(t *testing.T) {
	const n = 200
	out, err := runCells(Config{Workers: 8}, n, func(i int, _ *cellCtx) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestRunCellsFirstError(t *testing.T) {
	boom := func(i int, _ *cellCtx) (int, error) {
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return i, nil
	}
	// Serial: the first error in cell order, exactly.
	if _, err := runCells(Config{Workers: 1}, 10, boom); err == nil || err.Error() != "cell 3 failed" {
		t.Fatalf("serial error = %v", err)
	}
	// Parallel: some failing cell's error (the lowest-indexed one observed).
	_, err := runCells(Config{Workers: 4}, 10, boom)
	if err == nil {
		t.Fatal("parallel run swallowed the error")
	}
	if msg := err.Error(); msg != "cell 3 failed" && msg != "cell 7 failed" {
		t.Fatalf("parallel error = %q", msg)
	}
}

// TestRunCellsPanic: a cell that panics fails the run with a
// *CellPanicError, at one worker and at eight, instead of killing the
// process. Every cell from 3 on panics, the later ones only once cell 3
// has, so the lowest panicking index is the one reported; a worker
// stops at its first failure, so cells not yet started are skipped.
func TestRunCellsPanic(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var started atomic.Int64
			third := make(chan struct{})
			_, err := runCells(Config{Workers: workers}, n, func(i int, _ *cellCtx) (int, error) {
				started.Add(1)
				switch {
				case i < 3:
					return i, nil
				case i == 3:
					close(third)
				default:
					<-third
				}
				panic(fmt.Sprintf("boom %d", i))
			})
			var pe *CellPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("runCells = %v, want a *CellPanicError", err)
			}
			if pe.Cell != 3 || pe.Value != "boom 3" {
				t.Fatalf("panic reported for cell %d (%v), want cell 3 (boom 3)", pe.Cell, pe.Value)
			}
			if !strings.Contains(string(pe.Stack), "TestRunCellsPanic") {
				t.Fatalf("panic stack does not reach the cell:\n%s", pe.Stack)
			}
			if got := started.Load(); got > int64(3+workers) {
				t.Fatalf("%d cells started, want at most %d: cells were not skipped after the panic", got, 3+workers)
			}
		})
	}
}

func TestRunCellsEdgeCases(t *testing.T) {
	if out, err := runCells(Config{Workers: 4}, 0, func(int, *cellCtx) (int, error) { return 0, errors.New("never") }); err != nil || len(out) != 0 {
		t.Fatalf("empty grid: %v %v", out, err)
	}
	// workers <= 0 falls back to GOMAXPROCS.
	out, err := runCells(Config{}, 5, func(i int, _ *cellCtx) (int, error) { return i, nil })
	if err != nil || len(out) != 5 {
		t.Fatalf("default workers: %v %v", out, err)
	}
}

// TestLoadCurvesStopAtSaturation pins the paper's sweep rule on the
// load runner: a curve gets no point after its first SAT, while curves
// that have not saturated keep advancing in lockstep.
func TestLoadCurvesStopAtSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.Loads = []float64{0.05, 0.15, 0.3, 0.5, 0.8, 1.2, 2.0, 3.0}
	rts, err := family(cfg.TopoCfg, 1, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// The software baseline saturates far earlier than the tree worm.
	specs := []loadCurveSpec{
		{Label: "binomial", Scheme: binomial.New(), Rts: rts, Params: cfg.Params, Degree: 16, Flits: cfg.MsgFlits},
		{Label: "sw-tree", Scheme: treeworm.New(), Rts: rts, Params: cfg.Params, Degree: 16, Flits: cfg.MsgFlits},
	}
	series, err := runLoadCurves(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.X) == 0 || len(s.Note) != len(s.X) {
			t.Fatalf("%s: %d points, %d notes", s.Label, len(s.X), len(s.Note))
		}
		for i, note := range s.Note {
			if note == "SAT" && i != len(s.Note)-1 {
				t.Fatalf("%s: point %d (load %v) saturated but the curve continued to load %v",
					s.Label, i, s.X[i], s.X[len(s.X)-1])
			}
		}
	}
	base, tree := series[0], series[1]
	if base.Note[len(base.Note)-1] != "SAT" || len(base.X) == len(cfg.Loads) {
		t.Fatalf("binomial never saturated before the last load: X=%v notes=%v", base.X, base.Note)
	}
	if len(tree.X) <= len(base.X) {
		t.Fatalf("sw-tree stopped with binomial: %d vs %d points", len(tree.X), len(base.X))
	}
}

// renderTables flattens an experiment's tables to the exact bytes the CLI
// prints, the currency of the determinism guarantee.
func renderTables(t *testing.T, tabs []*metrics.Table) string {
	t.Helper()
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestSameConfigTwiceIdentical: determinism requirement (a) — re-running
// the same Config reproduces the tables byte for byte.
func TestSameConfigTwiceIdentical(t *testing.T) {
	cfg := testConfig()
	a, err := Fig6EffectOfR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6EffectOfR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if renderTables(t, a) != renderTables(t, b) {
		t.Fatal("fig6 is not reproducible for a fixed Config")
	}
}

// TestParallelWorkersMatchSerial: determinism requirement (b) — the
// worker count must not leak into results. workers=1 is the serial
// harness; workers=8 exercises real interleaving even on one CPU.
func TestParallelWorkersMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("load + fault sweeps in -short mode")
	}
	cases := []struct {
		id  string
		run Runner
	}{
		{"fig6", Fig6EffectOfR},
		{"fig9", Fig9LoadVsR},
		{"faultsweep", FaultSweep},
		{"churnsweep", ChurnSweep},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			serial := testConfig()
			serial.Workers = 1
			parallel := testConfig()
			parallel.Workers = 8
			st, err := c.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := c.run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			s, p := renderTables(t, st), renderTables(t, pt)
			if s != p {
				t.Fatalf("workers=1 and workers=8 disagree:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}

// TestCellSeedsPairwiseDistinct: determinism requirement (c) — every
// experiment's cell grid derives pairwise-distinct seeds. The grids below
// mirror the derivations in the runners (paper-scale dimensions, both
// default seeds and a seed of 0, which the old additive/multiplicative
// arithmetic collapsed).
func TestCellSeedsPairwiseDistinct(t *testing.T) {
	cfg := Full()
	for _, seed := range []uint64{0, 1, cfg.Seed} {
		seed := seed
		grids := map[string][]uint64{}
		add := func(grid string, s uint64) { grids[grid] = append(grids[grid], s) }
		// Default-family single and load traffic cells, plus the raw seed
		// (used directly for the default topology family).
		for _, grid := range []string{"single", "load", "coll", "mixed", "fault"} {
			add(grid, seed)
		}
		for ti := 0; ti < cfg.Topologies; ti++ {
			add("single", rng.Mix(seed, saltSingle, uint64(ti)))
			add("coll", rng.Mix(seed, saltColl, uint64(ti)))
			add("mixed", rng.Mix(seed, saltMixed, uint64(ti)))
			add("fault", rng.Mix(seed, 7919, uint64(ti)))
		}
		for ti := 0; ti < cfg.LoadTopologies; ti++ {
			add("load", rng.Mix(seed, saltLoad, uint64(ti)))
		}
		// Sweep-varying families (fig7/fig10/size): family seeds must not
		// collide with each other nor with any traffic cell of the sweep.
		for _, x := range []uint64{8, 16, 32, 64, 128} {
			add("single", rng.Mix(seed, saltFamily, x))
			add("load", rng.Mix(seed, saltFamily, x))
		}
		// Fault sweep: per-(topology, failures) run seeds and
		// per-(topology, probe, failures) schedule seeds share one grid.
		for ti := 0; ti < cfg.Topologies; ti++ {
			for f := 0; f <= 2; f++ {
				add("faultsweep", rng.Mix(seed, 0xfa11, uint64(ti), uint64(f)))
				for probe := 0; probe < cfg.Probes; probe++ {
					add("faultsweep", rng.Mix(seed, 0x5eed, uint64(ti), uint64(probe), uint64(f)))
				}
			}
		}
		// Churn sweep: per-topology workload seeds plus the
		// per-(topology, probe, failures) fault-schedule seeds; the
		// workload's own derived streams (arbitration, membership
		// schedules) are covered by traffic's pairwise test.
		for ti := 0; ti < cfg.Topologies; ti++ {
			add("churnsweep", rng.Mix(seed, saltChurn, uint64(ti)))
			for f := 1; f <= 1; f++ {
				for probe := 0; probe < churnProbes(cfg); probe++ {
					add("churnsweep", rng.Mix(seed, saltChurnFault, uint64(ti), uint64(probe), uint64(f)))
				}
			}
		}
		for grid, seeds := range grids {
			seen := map[uint64]int{}
			for i, s := range seeds {
				if j, dup := seen[s]; dup {
					t.Errorf("seed=%d grid=%s: cells %d and %d collide (%#x)", seed, grid, j, i, s)
				}
				seen[s] = i
			}
		}
	}
}
