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
// ([uvarint n][n bytes of gob(journalRecord)]). Each record is a
// standalone gob stream, so the journal tolerates a torn final record —
// exactly what a kill mid-write leaves behind — by ignoring it; every
// earlier record remains usable. Records are keyed by (call, cell):
// runCells invocations are sequential and deterministic within an
// experiment, so the running call counter identifies "which runCells"
// across processes without any registry of call sites.
package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mcastsim/internal/obs"
)

// journalName is the journal file inside a checkpoint directory.
const journalName = "cells.journal"

// recDone is the kind of a completed cell's record, the only kind
// written. Replay skips any other kind: journals from before the cell
// became the only resume unit may hold kind-2 records of mid-cell probe
// progress, and those cells simply rerun.
const recDone uint8 = 1

type cellKey struct{ Call, Cell int }

type journalRecord struct {
	Call, Cell int
	Kind       uint8
	Data       []byte // gob of the cell's result
	// Obs marks a cell that ran with telemetry on, and Bundle is the
	// telemetry it recorded (nil for a cell that records none). A run
	// with telemetry on reruns a cell journaled without it.
	Obs    bool
	Bundle *obs.Bundle
}

// Interrupted is returned by an experiment whose Checkpointer hit its
// StopAfter budget: the run stopped cleanly at a cell boundary with the
// journal intact. Re-running with the same checkpoint directory resumes
// from that point.
type Interrupted struct {
	Cells int // newly-completed cells before stopping
}

func (e *Interrupted) Error() string {
	return fmt.Sprintf("experiment: interrupted after %d newly-completed cells (journal is resumable)", e.Cells)
}

// Checkpointer journals cell completions for one experiment run. Open
// it on a directory (created if missing), thread it through
// Config.Checkpoint, and run the experiment; to resume after a kill,
// open the same directory again. A Checkpointer serves exactly one
// experiment invocation — the call counter that keys the journal resets
// only at Open.
type Checkpointer struct {
	mu    sync.Mutex
	f     *os.File
	done  map[cellKey]*journalRecord
	calls int

	stopAfter int  // >0: interrupt after that many newly-completed cells
	completed int  // newly-completed (not resumed) cells this run
	interrupt bool // Interrupt() called: stop at the next cell boundary
}

// OpenCheckpointer opens dir as a checkpoint directory, creating it if
// needed, and loads any journal a previous run left there. The loaded
// records are what resume skips; a fresh directory means a fresh run.
func OpenCheckpointer(dir string) (*Checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, journalName)
	c := &Checkpointer{done: make(map[cellKey]*journalRecord)}
	valid, torn := 0, false
	if prev, err := os.ReadFile(path); err == nil {
		valid = c.load(prev)
		torn = valid < len(prev)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("experiment: checkpoint journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: checkpoint journal: %w", err)
	}
	// Drop a torn tail before appending: records written after garbage
	// would be unreachable on the next replay (load stops at the first
	// undecodable frame).
	if torn {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("experiment: checkpoint journal: %w", err)
		}
	}
	c.f = f
	return c, nil
}

// load replays a journal image into the done map and returns the byte
// length of the valid prefix. A torn final record (truncated length or
// body, or a gob that does not decode) ends the replay — that is the
// expected state after a kill; the caller truncates it away.
func (c *Checkpointer) load(img []byte) int {
	off := 0
	for off < len(img) {
		rest := img[off:]
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > uint64(len(rest)-w) {
			return off // torn tail
		}
		body := rest[w : w+int(n)]
		var rec journalRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			return off // torn tail
		}
		off += w + int(n)
		if rec.Kind == recDone {
			c.done[cellKey{rec.Call, rec.Cell}] = &rec
		}
	}
	return off
}

// Close releases the journal file. Safe after a partial run; the
// journal stays resumable.
func (c *Checkpointer) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
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

// append frames and writes one done record, updating the done map.
func (c *Checkpointer) append(rec *journalRecord) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(rec); err != nil {
		return fmt.Errorf("experiment: checkpoint encode: %w", err)
	}
	var frame [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(frame[:], uint64(body.Len()))

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("experiment: checkpointer is closed")
	}
	if _, err := c.f.Write(append(frame[:w:w], body.Bytes()...)); err != nil {
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
	rec.Kind, rec.Data = recDone, body.Bytes()
	return c.append(&rec)
}
