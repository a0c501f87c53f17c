package experiment

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/traffic"
)

// resumeConfig slims testConfig for the resume tests, which run fig6
// repeatedly across worker counts.
func resumeConfig() Config {
	cfg := testConfig()
	cfg.Probes = 3
	return cfg
}

// runInterruptible re-runs an experiment against one checkpoint
// directory until it stops returning *Interrupted, reopening the
// journal each time exactly as a fresh process would. Returns the
// final tables and how many separate runs convergence took.
func runInterruptible(t *testing.T, cfg Config, dir string, stopAfter int, run Runner) ([]*metrics.Table, int) {
	t.Helper()
	for runs := 1; ; runs++ {
		if runs > 100 {
			t.Fatal("resume did not converge in 100 runs")
		}
		ck, err := OpenCheckpointer(dir)
		if err != nil {
			t.Fatal(err)
		}
		ck.StopAfter(stopAfter)
		cfg.Checkpoint = ck
		tabs, err := run(cfg)
		if cerr := ck.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err == nil {
			return tabs, runs
		}
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("run %d: %v", runs, err)
		}
		if intr.Cells < stopAfter {
			t.Fatalf("run %d: interrupted after %d cells, budget was %d", runs, intr.Cells, stopAfter)
		}
	}
}

// TestResumeEqualsUninterrupted is the tier-1 resume property: a run
// killed and resumed any number of times renders tables byte-identical
// to an uninterrupted run, across worker counts.
func TestResumeEqualsUninterrupted(t *testing.T) {
	base := resumeConfig()
	for _, workers := range []int{1, 8} {
		// The shards=1 prefix is kept from when the engine had a shard
		// axis; every run is on the single calendar queue.
		t.Run(fmt.Sprintf("shards=1_workers=%d", workers), func(t *testing.T) {
			cfg := base
			cfg.Workers = workers
			want, err := Fig6EffectOfR(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, runs := runInterruptible(t, cfg, t.TempDir(), 5, Fig6EffectOfR)
			if runs < 2 {
				t.Fatalf("run was never interrupted (%d runs) — the stop hook is dead", runs)
			}
			if g, w := renderTables(t, got), renderTables(t, want); g != w {
				t.Fatalf("resumed tables differ from uninterrupted:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", g, w)
			}
		})
	}
}

// TestResumePartialCell plants a mid-cell (probe-granular) checkpoint —
// the state a kill between two probes leaves behind — and checks the
// resumed run still renders byte-identical tables.
func TestResumePartialCell(t *testing.T) {
	cfg := resumeConfig()
	want, err := Fig6EffectOfR(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct fig6's cell 0 (R=0.5, first scheme, first topology)
	// and capture its per-probe checkpoints from a direct traffic run.
	rts, err := family(cfg.TopoCfg, cfg.Topologies, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var cps []traffic.CellCheckpoint
	if _, err := traffic.Run(rts[0], traffic.Workload{
		Scheme: compared()[0], Params: cfg.Params.WithR(0.5),
		Degree: cfg.Degree, MsgFlits: cfg.MsgFlits,
		Seed: rng.Mix(cfg.Seed, saltSingle, 0),
	}, traffic.WithProbes(cfg.Probes),
		traffic.WithCheckpoint(func(cp traffic.CellCheckpoint) { cps = append(cps, cp) })); err != nil {
		t.Fatal(err)
	}
	if len(cps) != cfg.Probes {
		t.Fatalf("captured %d checkpoints, want %d", len(cps), cfg.Probes)
	}

	dir := t.TempDir()
	ck, err := OpenCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&cps[1]); err != nil {
		t.Fatal(err)
	}
	if err := ck.append(journalRecord{Call: 0, Cell: 0, Kind: recPartial, Data: body.Bytes()}); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = ck
	got, err := Fig6EffectOfR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if g, w := renderTables(t, got), renderTables(t, want); g != w {
		t.Fatalf("partial-cell resume diverged:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", g, w)
	}
}

// TestJournalTornTail: a frame header promising more bytes than follow
// (a kill mid-write) must not lose earlier records, and — because open
// truncates the tear — records appended afterwards must survive the
// next replay too.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckStore(ck, 0, 0, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ckStore(ck, 0, 1, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// uvarint length 256 followed by only two bytes of body.
	if _, err := f.Write([]byte{0x80, 0x02, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	for cell, want := range map[int][]float64{0: {1, 2}, 1: {3}} {
		v, ok, err := ckLoad[[]float64](ck2, 0, cell)
		if err != nil || !ok {
			t.Fatalf("cell %d lost behind torn tail: ok=%v err=%v", cell, ok, err)
		}
		if fmt.Sprint(v) != fmt.Sprint(want) {
			t.Fatalf("cell %d = %v, want %v", cell, v, want)
		}
	}
	// A record appended after the (truncated) tear must be replayable.
	if err := ckStore(ck2, 0, 2, []float64{4}); err != nil {
		t.Fatal(err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	ck3, err := OpenCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	if v, ok, err := ckLoad[[]float64](ck3, 0, 2); err != nil || !ok || len(v) != 1 || v[0] != 4 {
		t.Fatalf("post-tear record lost: v=%v ok=%v err=%v", v, ok, err)
	}
}

// TestCheckpointObsExclusive: checkpointing refuses to combine with
// telemetry — a resumed run cannot reproduce skipped cells' obs streams.
func TestCheckpointObsExclusive(t *testing.T) {
	cfg := resumeConfig()
	cfg.Obs = &ObsSink{}
	ck, err := OpenCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	cfg.Checkpoint = ck
	if _, err := Fig6EffectOfR(cfg); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("obs+checkpoint err = %v", err)
	}
}
