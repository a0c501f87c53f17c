package event

import (
	"testing"
	"testing/quick"

	"mcastsim/internal/rng"
)

// kFunc is a test-local kind whose actor is a func() its handler runs,
// so these tests can post throwaway callbacks at a timestamp.
const kFunc Kind = MaxKinds - 1

func runFunc(actor any, _ int64) { actor.(func())() }

func postAt(q *Queue, t Time, fn func()) {
	q.Register(kFunc, runFunc)
	q.Post(t, kFunc, fn, 0)
}

func postAfter(q *Queue, delay Time, fn func()) {
	q.Register(kFunc, runFunc)
	q.PostAfter(delay, kFunc, fn, 0)
}

func TestTimeOrdering(t *testing.T) {
	var q Queue
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		postAt(&q, at, func() { got = append(got, at) })
	}
	for q.Step() {
	}
	want := []Time{10, 20, 30, 40, 50}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinCycle(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		postAt(&q, 5, func() { got = append(got, i) })
	}
	for q.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events ran out of order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	var q Queue
	postAt(&q, 7, func() {})
	q.Step()
	if q.Now() != 7 {
		t.Fatalf("Now = %d, want 7", q.Now())
	}
}

func TestAfterRelative(t *testing.T) {
	var q Queue
	var fired Time = -1
	postAt(&q, 10, func() {
		postAfter(&q, 5, func() { fired = q.Now() })
	})
	for q.Step() {
	}
	if fired != 15 {
		t.Fatalf("After fired at %d, want 15", fired)
	}
}

func TestSchedulingDuringExecution(t *testing.T) {
	// An event scheduled for the current cycle from within an event must
	// still run, after already-queued same-cycle events.
	var q Queue
	var got []string
	postAt(&q, 1, func() {
		got = append(got, "a")
		postAt(&q, 1, func() { got = append(got, "c") })
	})
	postAt(&q, 1, func() { got = append(got, "b") })
	for q.Step() {
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var q Queue
	postAt(&q, 10, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	postAt(&q, 5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	postAfter(&q, -1, func() {})
}

func TestRunUntil(t *testing.T) {
	var q Queue
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		postAt(&q, at, func() { ran = append(ran, at) })
	}
	n := q.RunUntil(12)
	if n != 2 || len(ran) != 2 || ran[1] != 10 {
		t.Fatalf("RunUntil(12) ran %v (n=%d)", ran, n)
	}
	if q.Now() != 12 {
		t.Fatalf("Now = %d, want 12", q.Now())
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	var q Queue
	q.RunUntil(100)
	if q.Now() != 100 {
		t.Fatalf("Now = %d, want 100", q.Now())
	}
}

func TestDrainBound(t *testing.T) {
	var q Queue
	// Self-perpetuating event chain: Drain must give up at the bound.
	var tick func()
	tick = func() { postAfter(&q, 1, tick) }
	postAt(&q, 0, tick)
	if q.Drain(100) {
		t.Fatal("Drain claimed an endless chain drained")
	}
	if q.Processed() != 100 {
		t.Fatalf("Processed = %d after Drain(100), want 100", q.Processed())
	}
	var q2 Queue
	postAt(&q2, 1, func() {})
	if !q2.Drain(100) {
		t.Fatal("Drain failed on a finite queue")
	}

	// The budget counts logical events, so an endless chain of records
	// fused three at a time stops after 34 records (102 events): a record
	// runs whole, overrunning the budget by less than its weight.
	var q3 Queue
	var fusedTick func()
	fusedTick = func() { q3.PostFused(q3.Now()+1, kFunc, fusedTick, 0, 3) }
	q3.Register(kFunc, runFunc)
	q3.PostFused(0, kFunc, fusedTick, 0, 3)
	if q3.Drain(100) {
		t.Fatal("Drain claimed an endless fused chain drained")
	}
	if q3.Processed() != 102 {
		t.Fatalf("Processed = %d after Drain(100) on a fused chain, want 102", q3.Processed())
	}
	var q4 Queue
	q4.Register(kFunc, runFunc)
	q4.PostFused(1, kFunc, func() {}, 0, 3)
	if !q4.Drain(100) || q4.Processed() != 3 {
		t.Fatalf("Drain on a finite fused queue: Processed = %d, Len = %d", q4.Processed(), q4.Len())
	}

	// A joined post counts in the budget too: every record below carries
	// a post of 4 events and a joined one of 3, so the chain stops after
	// 15 records (105 events), overrunning the budget by most of a record.
	var q5 Queue
	var records int
	var joinedTick func()
	joinedTick = func() {
		records++
		q5.PostFused(q5.Now()+1, kFunc, joinedTick, 0, 4)
		if !q5.PostFused(q5.Now()+1, kFunc, nil, 0, 3) {
			t.Error("second fused post of the cycle did not join")
		}
	}
	q5.Register(kFunc, runFunc)
	q5.PostFused(0, kFunc, joinedTick, 0, 7)
	if q5.Drain(100) {
		t.Fatal("Drain claimed an endless joined chain drained")
	}
	if q5.Processed() != 105 || records != 15 {
		t.Fatalf("Drain(100) on a joined chain ran %d records, %d events, want 15 and 105", records, q5.Processed())
	}
}

func TestProcessedCounts(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		postAt(&q, Time(i), func() {})
	}
	for q.Step() {
	}
	if q.Processed() != 5 {
		t.Fatalf("Processed = %d", q.Processed())
	}
}

func TestHeapPropertyRandom(t *testing.T) {
	f := func(raw []uint16) bool {
		var q Queue
		var got []Time
		for _, v := range raw {
			at := Time(v % 1000)
			postAt(&q, at, func() { got = append(got, at) })
		}
		for q.Step() {
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return len(got) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	r := rng.New(1)
	var q Queue
	q.Register(kFunc, runFunc)
	nop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Post(q.Now()+Time(r.Intn(64)), kFunc, nop, 0)
		q.Step()
	}
}
