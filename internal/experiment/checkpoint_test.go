package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcastsim/internal/metrics"
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
// journal each time exactly as a fresh process would; with telemetry
// on, each run also gets a fresh sink like the one a new process
// builds. Returns the final tables, how many separate runs convergence
// took, and the final run's sink (nil with telemetry off).
func runInterruptible(t *testing.T, cfg Config, dir string, stopAfter int, run Runner) ([]*metrics.Table, int, *ObsSink) {
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
		if cfg.Obs != nil {
			cfg.Obs = &ObsSink{Config: cfg.Obs.Config}
		}
		tabs, err := run(cfg)
		if cerr := ck.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err == nil {
			return tabs, runs, cfg.Obs
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
			got, runs, _ := runInterruptible(t, cfg, t.TempDir(), 5, Fig6EffectOfR)
			if runs < 2 {
				t.Fatalf("run was never interrupted (%d runs) — the stop hook is dead", runs)
			}
			if g, w := renderTables(t, got), renderTables(t, want); g != w {
				t.Fatalf("resumed tables differ from uninterrupted:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", g, w)
			}
		})
	}
}

// appendOldRecord appends one record to dir's journal in the framing
// and field layout of journals written before the completed cell became
// the only resume unit (gob matches fields by name, so these are the
// bytes such a journal holds).
func appendOldRecord(t *testing.T, dir string, call, cell int, kind uint8, data any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(data); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(struct {
		Call, Cell int
		Kind       uint8
		Data       []byte
	}{call, cell, kind, payload.Bytes()}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := binary.AppendUvarint(nil, uint64(body.Len()))
	if _, err := f.Write(append(frame, body.Bytes()...)); err != nil {
		t.Fatal(err)
	}
}

// TestResumePartialCell: journals written when single-probe cells also
// journaled mid-cell progress may hold kind-2 records for a cell that
// never finished. Opening such a journal skips the record, the cell
// reruns from its first probe, and the tables match an uninterrupted
// run's.
func TestResumePartialCell(t *testing.T) {
	cfg := resumeConfig()
	want, err := Fig6EffectOfR(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fig6's cell 0 after one of its probes: the next probe index, the
	// draw RNG's state and the latencies so far.
	dir := t.TempDir()
	appendOldRecord(t, dir, 0, 0, 2, struct {
		NextProbe int
		RNG       [4]uint64
		Latencies []float64
	}{1, [4]uint64{1, 2, 3, 4}, []float64{1234}})

	ck, err := OpenCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, rec, err := ckLoad[[]float64](ck, 0, 0); err != nil || rec != nil {
		t.Fatalf("partial record loaded as a done cell: rec=%v err=%v", rec, err)
	}
	cfg.Checkpoint = ck
	got, err := Fig6EffectOfR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, rec, err := ckLoad[[]float64](ck, 0, 0); err != nil || rec == nil {
		t.Fatalf("cell 0 not journaled after its rerun: rec=%v err=%v", rec, err)
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
	if err := ckStore(ck, journalRecord{Call: 0, Cell: 0}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ckStore(ck, journalRecord{Call: 0, Cell: 1}, []float64{3}); err != nil {
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
		v, rec, err := ckLoad[[]float64](ck2, 0, cell)
		if err != nil || rec == nil {
			t.Fatalf("cell %d lost behind torn tail: rec=%v err=%v", cell, rec, err)
		}
		if fmt.Sprint(v) != fmt.Sprint(want) {
			t.Fatalf("cell %d = %v, want %v", cell, v, want)
		}
	}
	// A record appended after the (truncated) tear must be replayable.
	if err := ckStore(ck2, journalRecord{Call: 0, Cell: 2}, []float64{4}); err != nil {
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
	if v, rec, err := ckLoad[[]float64](ck3, 0, 2); err != nil || rec == nil || len(v) != 1 || v[0] != 4 {
		t.Fatalf("post-tear record lost: v=%v rec=%v err=%v", v, rec, err)
	}
}

// TestCheckpointObs: checkpointing composes with telemetry. A run
// interrupted and resumed any number of times with telemetry on renders
// the uninterrupted run's tables and telemetry stream byte for byte,
// across worker counts: journaled cells re-commit their bundles. A
// journal written without telemetry, resumed with it on, still yields
// every bundle, because those cells rerun.
func TestCheckpointObs(t *testing.T) {
	base := resumeConfig()
	uninterrupted := func(workers int) (string, []byte) {
		cfg := base
		cfg.Workers = workers
		cfg.Obs = &ObsSink{}
		tabs, err := Fig6EffectOfR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return renderTables(t, tabs), obsJSONL(t, cfg.Obs)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("resume/workers=%d", workers), func(t *testing.T) {
			wantTabs, wantObs := uninterrupted(workers)
			cfg := base
			cfg.Workers = workers
			cfg.Obs = &ObsSink{}
			got, runs, sink := runInterruptible(t, cfg, t.TempDir(), 5, Fig6EffectOfR)
			if runs < 2 {
				t.Fatalf("run was never interrupted (%d runs)", runs)
			}
			if g := renderTables(t, got); g != wantTabs {
				t.Fatalf("resumed tables differ from uninterrupted:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", g, wantTabs)
			}
			if g := obsJSONL(t, sink); !bytes.Equal(g, wantObs) {
				t.Fatalf("resumed telemetry differs from uninterrupted (%d vs %d bytes)", len(g), len(wantObs))
			}
		})
	}
	t.Run("journal-without-obs", func(t *testing.T) {
		wantTabs, wantObs := uninterrupted(1)
		dir := t.TempDir()
		cfg := base
		cfg.Workers = 1
		ck, err := OpenCheckpointer(dir)
		if err != nil {
			t.Fatal(err)
		}
		ck.StopAfter(5)
		cfg.Checkpoint = ck
		var intr *Interrupted
		if _, err := Fig6EffectOfR(cfg); !errors.As(err, &intr) {
			t.Fatalf("telemetry-free run was not interrupted: %v", err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}

		if ck, err = OpenCheckpointer(dir); err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		cfg.Checkpoint = ck
		cfg.Obs = &ObsSink{}
		got, err := Fig6EffectOfR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g := renderTables(t, got); g != wantTabs {
			t.Fatalf("resumed tables differ from uninterrupted:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", g, wantTabs)
		}
		if g := obsJSONL(t, cfg.Obs); !bytes.Equal(g, wantObs) {
			t.Fatalf("telemetry after a telemetry-free journal differs from uninterrupted (%d vs %d bytes)", len(g), len(wantObs))
		}
	})
}
