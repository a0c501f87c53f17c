package event

// Snapshot support: the engine's pending schedule is enumerable in
// realized dispatch order, and an empty engine can be repositioned to a
// restored clock. The sim layer's Checkpoint/Restore builds on exactly
// these two operations — it serializes the enumerated records (typed
// kinds only; the actor pointers themselves are translated by the
// owner of the state they point into) and re-posts them after moving a
// freshly built engine to the snapshot time.

import "fmt"

// PendingEvent is one scheduled event as enumerated by SnapshotPending:
// the typed record {at, kind, actor, arg}. Events appear in realized
// dispatch order — the exact order Step would run them — which is the
// only ordering property the engine guarantees to persist across a
// drain/re-post cycle (absolute sequence numbers are internal and
// renumbered freely). A fused record (PostFused) appears once, under its
// own kind.
type PendingEvent struct {
	At    Time
	Kind  Kind
	Actor any
	Arg   int64
}

// SnapshotPending enumerates every pending event in realized dispatch
// order, leaving the schedule observably unchanged. Internally the
// queue is drained and re-posted, so sequence numbers are renumbered;
// the realized total order — all any caller can observe — is preserved
// exactly.
func (q *Queue) SnapshotPending() []PendingEvent {
	moved := q.drainRealized()
	q.reinsert(moved)
	if len(moved) == 0 {
		return nil
	}
	out := make([]PendingEvent, len(moved))
	for i, e := range moved {
		out[i] = PendingEvent{At: e.at, Kind: e.kind, Actor: e.actor, Arg: e.arg}
	}
	return out
}

// ResetTo repositions an empty queue for a restored run: the clock
// jumps to t and the processed counter to processed, after which the
// restorer re-posts the snapshot's pending events in their enumerated
// order. Panics if events are pending — ResetTo is a restore primitive,
// not a way to discard a schedule.
func (q *Queue) ResetTo(t Time, processed uint64) {
	if q.Len() != 0 {
		panic(fmt.Sprintf("event: ResetTo with %d pending events", q.Len()))
	}
	q.now = t
	q.ran = processed
	if q.buckets != nil {
		q.cursor = t
	}
}
