package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcastsim/internal/metrics"
	"mcastsim/internal/obs"
)

// resumeConfig slims testConfig for the resume tests, which run fig6
// repeatedly across worker counts.
func resumeConfig() Config {
	cfg := testConfig()
	cfg.Probes = 3
	return cfg
}

// fig6IDs is the experiment list the resume tests stamp their journals
// with.
var fig6IDs = []string{"fig6"}

// runInterruptible re-runs an experiment against one checkpoint
// directory until it stops returning *Interrupted, reopening the
// journal each time exactly as a fresh process would; with telemetry
// on, each run also gets a fresh sink like the one a new process
// builds. Returns the final tables, how many separate runs convergence
// took, and the final run's sink (nil with telemetry off).
func runInterruptible(t *testing.T, cfg Config, dir string, stopAfter int, id string) ([]*metrics.Table, int, *ObsSink) {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	for runs := 1; ; runs++ {
		if runs > 100 {
			t.Fatal("resume did not converge in 100 runs")
		}
		ck, err := OpenCheckpointer(dir, []string{id}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ck.StopAfter(stopAfter)
		cfg.Checkpoint = ck
		if cfg.Obs != nil {
			cfg.Obs = &ObsSink{Config: cfg.Obs.Config}
		}
		tabs, err := e.Run(cfg)
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
// to an uninterrupted run, across worker counts. fig6 is one
// single-multicast table; ab-path adds a load sweep to one, so the run
// spans several runCells calls; churnsweep's curves are (scheme,
// failures) pairs.
func TestResumeEqualsUninterrupted(t *testing.T) {
	base := resumeConfig()
	for _, id := range []string{"fig6", "ab-path", "churnsweep"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", id, workers), func(t *testing.T) {
				cfg := base
				cfg.Workers = workers
				want, err := e.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, runs, _ := runInterruptible(t, cfg, t.TempDir(), 5, id)
				if runs < 2 {
					t.Fatalf("run was never interrupted (%d runs) — the stop hook is dead", runs)
				}
				if g, w := renderTables(t, got), renderTables(t, want); g != w {
					t.Fatalf("resumed tables differ from uninterrupted:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", g, w)
				}
			})
		}
	}
}

// appendOldRecord appends one record to dir's journal in the framing
// and field layout of journals written before runs were stamped (gob
// matches fields by name, so these are the bytes such a journal holds).
func appendOldRecord(t *testing.T, dir string, call, cell int, kind uint8, data any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(data); err != nil {
		t.Fatal(err)
	}
	appendRecord(t, dir, struct {
		Call, Cell int
		Kind       uint8
		Data       []byte
	}{call, cell, kind, payload.Bytes()})
}

// appendRecord appends rec to dir's journal as one framed gob record.
func appendRecord(t *testing.T, dir string, rec any) {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		t.Fatal(err)
	}
	appendBytes(t, filepath.Join(dir, journalName), append(binary.AppendUvarint(nil, uint64(body.Len())), body.Bytes()...))
}

// appendBytes appends b to the file at path, creating it if needed.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// tornTail is a frame header promising 256 bytes followed by only two:
// what a kill mid-write leaves at a journal's end.
var tornTail = []byte{0x80, 0x02, 0xde, 0xad}

// refuseOpen opens dir for run ids under cfg, requires a
// *JournalMismatchError, and requires the journal to be byte for byte
// what it was before the open.
func refuseOpen(t *testing.T, dir string, ids []string, cfg Config) *JournalMismatchError {
	t.Helper()
	path := filepath.Join(dir, journalName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpointer(dir, ids, cfg)
	var mismatch *JournalMismatchError
	if !errors.As(err, &mismatch) {
		if ck != nil {
			ck.Close()
		}
		t.Fatalf("OpenCheckpointer = %v, want a *JournalMismatchError", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("refused open changed the journal (%d bytes, was %d)", len(after), len(before))
	}
	return mismatch
}

// TestResumeRefusesUnstampedJournal: a journal written before runs were
// stamped — here a done cell, a kind-2 record of mid-cell probe
// progress and a torn tail — names no run, so no run resumes it. The
// open is refused and the journal is left as it was, torn tail
// included.
func TestResumeRefusesUnstampedJournal(t *testing.T) {
	dir := t.TempDir()
	appendOldRecord(t, dir, 0, 0, 1, []float64{1234})
	appendOldRecord(t, dir, 0, 1, 2, struct {
		NextProbe int
		RNG       [4]uint64
		Latencies []float64
	}{1, [4]uint64{1, 2, 3, 4}, []float64{1234}})
	appendBytes(t, filepath.Join(dir, journalName), tornTail)

	mismatch := refuseOpen(t, dir, fig6IDs, resumeConfig())
	if mismatch.Journal != "" || !strings.Contains(mismatch.Error(), "an unstamped run") {
		t.Fatalf("unstamped journal refused as %q", mismatch.Error())
	}
}

// TestResumeRefusesOtherCellLayout: a journal's cells are keyed by
// where the code that wrote it laid them out. A journal stamped under
// another cell layout — one whose stamp has no layout, as every journal
// written before the layout was stamped, or a newer one — is refused
// before any cell runs and left as it was, torn tail included.
func TestResumeRefusesOtherCellLayout(t *testing.T) {
	cfg := resumeConfig()
	run := stampOf(fig6IDs, cfg)
	type unversioned struct{ Experiments, Config []string }
	for _, tc := range []struct {
		name  string
		stamp any // the journal's first record
		want  string
	}{
		{"unversioned", struct{ Stamp *unversioned }{&unversioned{run.Experiments, run.Config}},
			fmt.Sprintf("belongs to run fig6 cell layout 0, not to this run (fig6 cell layout %d)", cellLayout)},
		{"newer", journalRecord{Stamp: &runStamp{cellLayout + 1, run.Experiments, run.Config}},
			fmt.Sprintf("belongs to run fig6 cell layout %d", cellLayout+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			appendRecord(t, dir, tc.stamp)
			appendRecord(t, dir, journalRecord{Call: 0, Cell: 0, Data: []byte{1}})
			appendBytes(t, filepath.Join(dir, journalName), tornTail)
			if err := refuseOpen(t, dir, fig6IDs, cfg); !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

// TestResumeRefusesOtherRun: a journal resumes only under the run its
// stamp names. A fig6 journal is refused by fig8, by fig6 at another
// seed and by fig6 at paper scale, each before any cell runs and with
// the journal, torn tail included, left as it was. Worker count and
// telemetry are not part of the run, so changing them still resumes.
func TestResumeRefusesOtherRun(t *testing.T) {
	cfg := resumeConfig()
	cfg.Workers = 1 // the stop budget is then exactly the journaled cells
	dir := t.TempDir()
	ck, err := OpenCheckpointer(dir, fig6IDs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck.StopAfter(3)
	cfg.Checkpoint = ck
	var intr *Interrupted
	if _, err := Fig6EffectOfR(cfg); !errors.As(err, &intr) {
		t.Fatalf("fig6 run was not interrupted: %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	appendBytes(t, filepath.Join(dir, journalName), tornTail)

	otherSeed := resumeConfig()
	otherSeed.Seed = 2
	for _, tc := range []struct {
		name string
		ids  []string
		cfg  Config
		want string // in the error: the differing part of the journal's run
	}{
		{"fig8", []string{"fig8"}, resumeConfig(), "belongs to run fig6, not to this run (fig8)"},
		{"seed", fig6IDs, otherSeed, "belongs to run fig6 Seed=1998, not to this run (fig6 Seed=2)"},
		{"full", fig6IDs, Full(), "Probes=3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := refuseOpen(t, dir, tc.ids, tc.cfg); !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q does not contain %q", err.Error(), tc.want)
			}
		})
	}

	same := resumeConfig()
	same.Workers = 8
	same.Obs = &ObsSink{}
	ck, err = OpenCheckpointer(dir, fig6IDs, same)
	if err != nil {
		t.Fatalf("same run with other workers and telemetry refused: %v", err)
	}
	defer ck.Close()
	if len(ck.done) != 3 {
		t.Fatalf("resumed %d cells, want the 3 journaled", len(ck.done))
	}
}

// TestJournalTornTail: a frame header promising more bytes than follow
// (a kill mid-write) must not lose earlier records, and — because open
// truncates the tear — records appended afterwards must survive the
// next replay too.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpointer(dir, fig6IDs, resumeConfig())
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

	ck2, err := OpenCheckpointer(dir, fig6IDs, resumeConfig())
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
	ck3, err := OpenCheckpointer(dir, fig6IDs, resumeConfig())
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
// journal written without telemetry, or at another sampling cadence,
// resumed with telemetry on, yields exactly the bundles an
// uninterrupted run at the new cadence records, because those cells
// rerun.
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
			got, runs, sink := runInterruptible(t, cfg, t.TempDir(), 5, "fig6")
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
	for _, tc := range []struct {
		name string
		obs  *ObsSink // the journaling run's telemetry
	}{
		{"journal-without-obs", nil},
		{"cadence-change", &ObsSink{Config: obs.Config{Every: 100}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantTabs, wantObs := uninterrupted(1)
			dir := t.TempDir()
			cfg := base
			cfg.Workers = 1
			cfg.Obs = tc.obs
			ck, err := OpenCheckpointer(dir, fig6IDs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ck.StopAfter(5)
			cfg.Checkpoint = ck
			var intr *Interrupted
			if _, err := Fig6EffectOfR(cfg); !errors.As(err, &intr) {
				t.Fatalf("journaling run was not interrupted: %v", err)
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}

			if ck, err = OpenCheckpointer(dir, fig6IDs, cfg); err != nil {
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
				t.Fatalf("telemetry resumed from a %s journal differs from uninterrupted (%d vs %d bytes)", tc.name, len(g), len(wantObs))
			}
		})
	}
}

// FuzzJournal: opening any journal image never panics. The open either
// loads a valid prefix of the image — then the file holds that prefix,
// or this run's fresh stamp when no stamp survived, and reopening loads
// the same cells — or refuses the image with a *JournalMismatchError
// and leaves the file byte for byte as it was.
func FuzzJournal(f *testing.F) {
	cfg := resumeConfig()
	stamped := func(ids []string) []byte {
		dir := f.TempDir()
		ck, err := OpenCheckpointer(dir, ids, cfg)
		if err != nil {
			f.Fatal(err)
		}
		for cell, v := range [][]float64{{1, 2}, {3}} {
			if err := ckStore(ck, journalRecord{Cell: cell}, v); err != nil {
				f.Fatal(err)
			}
		}
		if err := ck.Close(); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			f.Fatal(err)
		}
		return img
	}
	stamp := stampOf(fig6IDs, cfg)
	fresh, err := frame(&journalRecord{Stamp: &stamp})
	if err != nil {
		f.Fatal(err)
	}
	valid := stamped(fig6IDs)
	f.Add([]byte{})
	f.Add(fresh[:len(fresh)/2]) // torn stamp
	f.Add(valid)
	foreign := stamped([]string{"fig8"})
	f.Add(foreign)
	f.Add(valid[:len(valid)-1])         // torn final record
	f.Add(append(foreign, tornTail...)) // refused, torn tail and all

	f.Fuzz(func(t *testing.T, img []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpointer(dir, fig6IDs, cfg)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			var mismatch *JournalMismatchError
			if !errors.As(err, &mismatch) {
				t.Fatalf("OpenCheckpointer = %v, want success or a *JournalMismatchError", err)
			}
			if !bytes.Equal(after, img) {
				t.Fatalf("refused open changed the journal (%d bytes, was %d)", len(after), len(img))
			}
			return
		}
		loaded := len(ck.done)
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, fresh) && (len(after) == 0 || !bytes.HasPrefix(img, after)) {
			t.Fatalf("opened journal (%d bytes) is neither a prefix of the image (%d bytes) nor a fresh stamp", len(after), len(img))
		}
		ck, err = OpenCheckpointer(dir, fig6IDs, cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer ck.Close()
		if len(ck.done) != loaded {
			t.Fatalf("reopen loaded %d cells, first open %d", len(ck.done), loaded)
		}
	})
}

// TestCheckpointCloseReportsFailedFlush pins Close's error: when the
// journal's file was closed underneath it, the flush to stable storage
// fails and Close says so, once; a second Close has nothing to release.
func TestCheckpointCloseReportsFailedFlush(t *testing.T) {
	ck, err := OpenCheckpointer(t.TempDir(), fig6IDs, resumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close after the file was closed underneath it = %v, want an error wrapping os.ErrClosed", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
