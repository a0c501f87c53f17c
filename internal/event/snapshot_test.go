package event

import "testing"

// kTick is a throwaway typed kind for snapshot tests.
const kTick Kind = 1

// TestSnapshotPendingRealizedOrder checks that enumeration returns the
// exact realized dispatch order and leaves the schedule unchanged: a
// queue stepped after SnapshotPending runs events in the enumerated
// order.
func TestSnapshotPendingRealizedOrder(t *testing.T) {
	var q Queue
	var got []int64
	q.Register(kTick, func(_ any, arg int64) { got = append(got, arg) })
	// Mix near (ring) and far (overflow) posts, with same-cycle FIFO.
	q.Post(5, kTick, nil, 0)
	q.Post(5, kTick, nil, 1)
	q.Post(3, kTick, nil, 2)
	q.Post(5000, kTick, nil, 3) // beyond the calendar window
	q.Post(3, kTick, nil, 4)

	pend := q.SnapshotPending()
	if len(pend) != 5 {
		t.Fatalf("%d pending, want 5", len(pend))
	}
	wantOrder := []int64{2, 4, 0, 1, 3}
	for i, p := range pend {
		if p.Arg != wantOrder[i] || p.Kind != kTick {
			t.Fatalf("enumeration %d = arg %d kind %d, want arg %d",
				i, p.Arg, p.Kind, wantOrder[i])
		}
	}
	wantAt := []Time{3, 3, 5, 5, 5000}
	for i, p := range pend {
		if p.At != wantAt[i] {
			t.Fatalf("enumeration %d at %d, want %d", i, p.At, wantAt[i])
		}
	}
	for q.Step() {
	}
	for i, v := range got {
		if v != wantOrder[i] {
			t.Fatalf("dispatch order %v, want %v", got, wantOrder)
		}
	}
}

// TestSnapshotPendingFused: enumerating a queue that holds a fused record
// lists the record once, and leaves Len and the dispatch order as they
// were.
func TestSnapshotPendingFused(t *testing.T) {
	var q Queue
	var got []int64
	q.Register(kTick, func(_ any, arg int64) { got = append(got, arg) })
	q.Post(4, kTick, nil, 0)
	q.PostFused(4, kTick, nil, 1, 6)
	q.Post(4, kTick, nil, 2)
	q.Post(3, kTick, nil, 3)
	q.Post(5000, kTick, nil, 4) // beyond the calendar window

	pend := q.SnapshotPending()
	if q.Len() != 10 {
		t.Fatalf("Len = %d after SnapshotPending, want 10", q.Len())
	}
	wantOrder := []int64{3, 0, 1, 2, 4}
	if len(pend) != len(wantOrder) {
		t.Fatalf("%d records enumerated, want %d", len(pend), len(wantOrder))
	}
	for i, p := range pend {
		if p.Arg != wantOrder[i] {
			t.Fatalf("enumeration %d = arg %d, want %d", i, p.Arg, wantOrder[i])
		}
	}
	for q.Step() {
	}
	if q.Processed() != 10 {
		t.Fatalf("Processed = %d, want 10", q.Processed())
	}
	for i, v := range got {
		if v != wantOrder[i] {
			t.Fatalf("dispatch order %v, want %v", got, wantOrder)
		}
	}
}

// TestQueueResetToRepost checks the restore sequence: reset an empty
// queue to a snapshot clock, re-post the enumerated events, and get the
// identical dispatch.
func TestQueueResetToRepost(t *testing.T) {
	var src Queue
	src.Register(kTick, func(any, int64) {})
	src.Post(100, kTick, nil, 1)
	src.Post(100, kTick, nil, 2)
	src.Post(90, kTick, nil, 3)
	src.RunUntil(80)
	pend := src.SnapshotPending()

	var dst Queue
	var got []int64
	dst.Register(kTick, func(_ any, arg int64) { got = append(got, arg) })
	dst.ResetTo(src.Now(), src.Processed())
	if dst.Now() != 80 {
		t.Fatalf("Now = %d after ResetTo", dst.Now())
	}
	for _, p := range pend {
		dst.Post(p.At, p.Kind, p.Actor, p.Arg)
	}
	for dst.Step() {
	}
	want := []int64{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("ran %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %v, want %v", got, want)
		}
	}
}

func TestResetToPendingPanics(t *testing.T) {
	var q Queue
	q.Post(1, kTick, nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("ResetTo with pending events did not panic")
		}
	}()
	q.ResetTo(10, 0)
}
