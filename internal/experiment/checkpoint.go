// Experiment-level checkpointing. A Checkpointer journals every
// completed simulation cell, with its telemetry bundle when the run
// records one, to an append-only file, so a killed run can resume with
// -resume and skip all finished work. The completed cell is the only
// resume unit. Cell results re-enter the aggregation pipeline exactly
// as the live run produced them (gob preserves float bits, including
// NaN), and cell seeds are pure functions of cell indices, so a resumed
// run's tables and telemetry are byte-identical to an uninterrupted
// run's.
//
// Journal format: a sequence of length-prefixed gob records
// ([uvarint n][n bytes of gob(journalRecord)]). The first record is the
// run's stamp (see stampOf); a journal resumes only under the run it
// names. Each record is a standalone gob stream, so the journal
// tolerates a torn final record — exactly what a kill mid-write leaves
// behind — by ignoring it; every earlier record remains usable. Cell
// records are keyed by (call, cell): runCells invocations are
// sequential and deterministic within a run, so the running call
// counter identifies "which runCells" across processes without any
// registry of call sites. Those keys hold only while the code lays
// cells out the same way, so the stamp also carries cellLayout.
package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"

	"mcastsim/internal/event"
	"mcastsim/internal/obs"
)

// journalName is the journal file inside a checkpoint directory.
const journalName = "cells.journal"

type cellKey struct{ Call, Cell int }

// journalRecord is one journal record: the run's stamp (first record
// only) or one completed cell.
type journalRecord struct {
	Stamp      *runStamp
	Call, Cell int
	Data       []byte // gob of the cell's result
	// Every is the telemetry cadence the cell ran at, 0 for a cell that
	// ran with telemetry off, and Bundle is the telemetry it recorded
	// (nil for a cell that records none). A run with telemetry on
	// reruns a cell journaled at another cadence or without telemetry.
	Every  event.Time
	Bundle *obs.Bundle
}

// cellLayout versions where each experiment's cells sit: which
// runCells call runs a cell and at which index. A change that moves
// cells must bump it. A journal keys cells by (call, cell), so resuming
// one written under another layout would hand cells each other's
// results; its stamp names the other version and the open is refused.
// Journals from before the version was stamped read as layout 0.
const cellLayout = 1

// runStamp names the run a journal belongs to: the cell layout, the
// experiment IDs in run order and, as "Name=value" entries in field
// order, every Config field that can change a cell's result.
type runStamp struct {
	Layout      int
	Experiments []string
	Config      []string
}

// unstamped lists the Config fields a stamp leaves out, because none
// can change a cell's result: tables are byte-identical across worker
// counts, each cell record carries its own telemetry cadence, and the
// checkpointer and progress hook only observe the run.
var unstamped = map[string]bool{"Workers": true, "Obs": true, "Checkpoint": true, "Progress": true}

// stampOf builds the stamp of the run that executes experiments ids, in
// order, under cfg. Every Config field outside unstamped is stamped, so
// a new field joins the stamp without an edit here.
func stampOf(ids []string, cfg Config) runStamp {
	s := runStamp{Layout: cellLayout, Experiments: slices.Clone(ids)}
	v := reflect.ValueOf(cfg)
	for i := range v.NumField() {
		if name := v.Type().Field(i).Name; !unstamped[name] {
			s.Config = append(s.Config, fmt.Sprintf("%s=%+v", name, v.Field(i).Interface()))
		}
	}
	return s
}

func (s *runStamp) equal(o *runStamp) bool {
	return s.Layout == o.Layout && slices.Equal(s.Experiments, o.Experiments) && slices.Equal(s.Config, o.Config)
}

// describe names s's run for an error message: its experiments, its
// cell layout if other's differs, then each Config entry that differs
// from other's.
func (s *runStamp) describe(other *runStamp) string {
	parts := []string{strings.Join(s.Experiments, ",")}
	if s.Layout != other.Layout {
		parts = append(parts, fmt.Sprintf("cell layout %d", s.Layout))
	}
	for i, kv := range s.Config {
		if i >= len(other.Config) || other.Config[i] != kv {
			parts = append(parts, kv)
		}
	}
	return strings.Join(parts, " ")
}

// JournalMismatchError refuses a checkpoint journal another run wrote:
// its stamp names another cell layout, other experiments or another
// result-bearing configuration, or it has no stamp (journals written
// before runs were stamped). OpenCheckpointer returns it before any
// cell runs and leaves the journal byte for byte as it was.
type JournalMismatchError struct {
	Path    string
	Journal string // the journal's run; empty when the journal has no stamp
	Run     string // the run that tried to resume it
}

func (e *JournalMismatchError) Error() string {
	journal := "an unstamped run"
	if e.Journal != "" {
		journal = "run " + e.Journal
	}
	return fmt.Sprintf("experiment: checkpoint journal %s belongs to %s, not to this run (%s); resume with that run's arguments or use a fresh checkpoint directory",
		e.Path, journal, e.Run)
}

// Interrupted is returned by an experiment whose Checkpointer hit its
// StopAfter budget: the run stopped cleanly at a cell boundary with the
// journal intact. Re-running the same run on the same checkpoint
// directory resumes from that point.
type Interrupted struct {
	Cells int // newly-completed cells before stopping
}

func (e *Interrupted) Error() string {
	return fmt.Sprintf("experiment: interrupted after %d newly-completed cells (journal is resumable)", e.Cells)
}

// Checkpointer journals cell completions for one run. Open it on a
// directory (created if missing), thread it through Config.Checkpoint,
// and run the experiments it was opened for, in order; to resume after
// a kill, open the same directory for the same run again. A
// Checkpointer serves exactly one run — the call counter that keys the
// journal resets only at Open.
type Checkpointer struct {
	mu    sync.Mutex
	f     *os.File
	done  map[cellKey]*journalRecord
	calls int

	stopAfter int  // >0: interrupt after that many newly-completed cells
	completed int  // newly-completed (not resumed) cells this run
	interrupt bool // Interrupt() called: stop at the next cell boundary
}

// OpenCheckpointer opens dir as the checkpoint directory of the run
// that executes experiments ids, in order, under cfg, creating it if
// needed. A journal a previous run left there resumes only if its stamp
// names this run; otherwise OpenCheckpointer returns a
// *JournalMismatchError and leaves the journal untouched. A fresh
// directory, or a journal torn inside its stamp, starts a fresh journal
// under this run's stamp.
func OpenCheckpointer(dir string, ids []string, cfg Config) (*Checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	prev, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("experiment: checkpoint journal: %w", err)
	}
	stamp := stampOf(ids, cfg)
	c := &Checkpointer{done: make(map[cellKey]*journalRecord)}
	valid, got := c.load(prev)
	if valid > 0 && (got == nil || !got.equal(&stamp)) {
		e := &JournalMismatchError{Path: path, Run: strings.Join(ids, ",")}
		if got != nil {
			e.Journal, e.Run = got.describe(&stamp), stamp.describe(got)
		}
		return nil, e
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint journal: %w", err)
	}
	c.f = f
	// Drop a torn tail before appending: records written after garbage
	// would be unreachable on the next replay (load stops at the first
	// undecodable frame).
	if valid < len(prev) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("experiment: checkpoint journal: %w", err)
		}
	}
	if valid == 0 {
		b, err := frame(&journalRecord{Stamp: &stamp})
		if err == nil {
			_, err = f.Write(b)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("experiment: checkpoint journal: %w", err)
		}
	}
	return c, nil
}

// load replays a journal image: its first record's stamp (nil when that
// record carries none) is returned, and every later record goes into
// the done map. It also returns the byte length of the valid prefix. A
// torn final record (truncated length or body, or a gob that does not
// decode) ends the replay — that is the expected state after a kill;
// the caller truncates it away.
func (c *Checkpointer) load(img []byte) (int, *runStamp) {
	var stamp *runStamp
	off := 0
	for off < len(img) {
		rest := img[off:]
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			break // torn tail
		}
		rec := new(journalRecord)
		if err := gob.NewDecoder(bytes.NewReader(rest[w : w+int(n)])).Decode(rec); err != nil {
			break // torn tail
		}
		if off == 0 {
			stamp = rec.Stamp
		} else {
			c.done[cellKey{rec.Call, rec.Cell}] = rec
		}
		off += w + int(n)
	}
	return off, stamp
}

// Close flushes the journal to stable storage and releases its file,
// returning the first error of the two. A run whose Close fails cannot
// count on its journal holding every cell it reported. Safe after a
// partial run, where the journal stays resumable, and safe to call
// again.
func (c *Checkpointer) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	if err != nil {
		return fmt.Errorf("experiment: checkpoint journal: %w", err)
	}
	return nil
}

// StopAfter makes the run stop with an *Interrupted error once n cells
// have newly completed (resumed cells do not count) — a deterministic
// stand-in for a kill, used by the resume tests and the CLI's
// -stop-after-cells smoke hook. Zero disables the hook.
func (c *Checkpointer) StopAfter(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopAfter = n
}

// Interrupt makes the run stop with an *Interrupted error at the next
// cell boundary regardless of any StopAfter budget: cells already
// running finish (and are journaled), cells not yet started are
// skipped. This is the drain half of the serve subsystem's graceful
// SIGTERM handling — after the run returns, the journal resumes the
// experiment exactly where the drain stopped it.
func (c *Checkpointer) Interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interrupt = true
}

// nextCall hands out the next runCells call index.
func (c *Checkpointer) nextCall() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.calls
	c.calls++
	return n
}

// stopError returns an *Interrupted once the stop budget is exhausted,
// nil before that.
func (c *Checkpointer) stopError() *Interrupted {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.interrupt || (c.stopAfter > 0 && c.completed >= c.stopAfter) {
		return &Interrupted{Cells: c.completed}
	}
	return nil
}

// frame encodes rec as one length-prefixed journal record.
func frame(rec *journalRecord) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return nil, fmt.Errorf("experiment: checkpoint encode: %w", err)
	}
	return append(binary.AppendUvarint(nil, uint64(body.Len())), body.Bytes()...), nil
}

// append journals one completed cell, updating the done map.
func (c *Checkpointer) append(rec *journalRecord) error {
	b, err := frame(rec)
	if err != nil {
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("experiment: checkpointer is closed")
	}
	if _, err := c.f.Write(b); err != nil {
		return fmt.Errorf("experiment: checkpoint write: %w", err)
	}
	c.done[cellKey{rec.Call, rec.Cell}] = rec
	c.completed++
	return nil
}

// ckLoad returns the journaled record for (call, cell) with its result
// decoded; a nil record means the cell is not journaled.
func ckLoad[T any](c *Checkpointer, call, cell int) (T, *journalRecord, error) {
	var v T
	c.mu.Lock()
	rec := c.done[cellKey{call, cell}]
	c.mu.Unlock()
	if rec == nil {
		return v, nil, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(rec.Data)).Decode(&v); err != nil {
		return v, nil, fmt.Errorf("experiment: checkpoint decode (call %d, cell %d): %w", call, cell, err)
	}
	return v, rec, nil
}

// ckStore journals a completed cell: rec names the cell and carries its
// telemetry, v is its result.
func ckStore[T any](c *Checkpointer, rec journalRecord, v T) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&v); err != nil {
		return fmt.Errorf("experiment: checkpoint encode (call %d, cell %d): %w", rec.Call, rec.Cell, err)
	}
	rec.Data = body.Bytes()
	return c.append(&rec)
}
