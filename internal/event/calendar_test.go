package event

import (
	"container/heap"
	"testing"
	"testing/quick"
	"unsafe"

	"mcastsim/internal/rng"
)

// kRecord is a test kind whose handler appends its arg to the actor's
// slice, letting tests observe exact dispatch order without closures.
const kRecord Kind = 1

type recorder struct{ got []int64 }

func newRecorded(q *Queue) *recorder {
	rec := &recorder{}
	q.Register(kRecord, func(actor any, arg int64) {
		actor.(*recorder).got = append(actor.(*recorder).got, arg)
	})
	return rec
}

func TestTypedDispatch(t *testing.T) {
	var q Queue
	rec := newRecorded(&q)
	q.Post(5, kRecord, rec, 42)
	q.PostAfter(3, kRecord, rec, 7)
	for q.Step() {
	}
	if len(rec.got) != 2 || rec.got[0] != 7 || rec.got[1] != 42 {
		t.Fatalf("dispatch order/args %v, want [7 42]", rec.got)
	}
	if q.Now() != 5 {
		t.Fatalf("Now = %d, want 5", q.Now())
	}
}

func TestRegisterRejectsOutOfRangeKind(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("registering kind MaxKinds did not panic")
		}
	}()
	q.Register(MaxKinds, func(any, int64) {})
}

// TestInsertionOrderProperty is the determinism contract: events with
// equal timestamps dispatch in insertion order, including timestamps that
// wrap the bucket ring several times and timestamps far enough out to
// take the overflow-heap path before migrating back into the ring.
func TestInsertionOrderProperty(t *testing.T) {
	f := func(raw []uint32, seed uint64) bool {
		var q Queue
		rec := newRecorded(&q)
		r := rng.New(seed)
		type post struct {
			at  Time
			ord int64
		}
		var posts []post
		for i, v := range raw {
			// Spread across ~6 ring windows plus a far tail so every
			// structural path is exercised: in-window append, multiple
			// ring wraps, and overflow-heap posts that must migrate.
			at := Time(v % (ringSize * 6))
			if r.Intn(8) == 0 {
				at += ringSize * 40
			}
			posts = append(posts, post{at: at, ord: int64(i)})
			q.Post(at, kRecord, rec, int64(i))
		}
		for q.Step() {
		}
		if len(rec.got) != len(posts) {
			return false
		}
		// Reconstruct the required (at, insertion) order.
		lastAt := Time(-1)
		lastOrd := map[Time]int64{}
		for _, ord := range rec.got {
			at := posts[ord].at
			if at < lastAt {
				return false
			}
			if prev, ok := lastOrd[at]; ok && ord <= prev {
				return false
			}
			lastAt = at
			lastOrd[at] = ord
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refQueue is the order oracle for the calendar queue: a plain binary
// min-heap on (at, seq), seq being the global post count — the total
// order the ring, its FIFO buckets and the far-heap migration must
// realize together.
type refQueue struct {
	h   refHeap
	seq uint64
}

type refEvent struct {
	at  Time
	seq uint64
	id  int64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (r *refQueue) push(at Time, id int64) {
	heap.Push(&r.h, refEvent{at: at, seq: r.seq, id: id})
	r.seq++
}

func (r *refQueue) pop() (Time, int64) {
	e := heap.Pop(&r.h).(refEvent)
	return e.at, e.id
}

// TestInterleavedPostAndStep drives the queue the way the simulator does:
// handlers re-post at short delays (same-cycle posts into the bucket
// being drained included) while external posts land between steps, some
// far enough ahead to take the overflow heap and migrate back in across
// ring wraps. Every post is mirrored into refQueue, and every dispatch
// must be exactly the reference's next (at, seq) event.
func TestInterleavedPostAndStep(t *testing.T) {
	const kStep Kind = 2
	cases := []struct {
		name   string
		hopMod int // the handler chain re-posts hops%hopMod cycles ahead
		// After one step in every, while fewer than external events have
		// been posted from outside, a round posts n events into the cycle
		// delay ahead, as round draws them.
		every    int
		round    func(r *rng.Source) (delay Time, n int)
		external int64
	}{
		{"sparse", 8, 3, func(r *rng.Source) (Time, int) { return Time(r.Intn(ringSize * 3)), 1 }, 2000},
		// Dense cycles: a round posts up to three chunks into one cycle,
		// either one of the next four (the cycle being drained included)
		// or one a window ahead, whose events migrate in one after the
		// other, the first opening the bucket's tail chunk and the rest
		// filling it. The chain posts into the cycle being drained every
		// other hop.
		{"dense", 2, 60, func(r *rng.Source) (Time, int) {
			return Time(r.Intn(4) + ringSize*r.Intn(2)), 1 + r.Intn(3*chunkSlots)
		}, 20_000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var (
				q    Queue
				ref  refQueue
				ran  int64    // id of the event the last Step dispatched
				next [2]int64 // per-source post counters: handler (0), external (1)
				hops int
			)
			// Handler posts take even ids and external posts odd ones, so
			// the handler knows which events continue the chain.
			post := func(at Time, src int) {
				id := 2*next[src] + int64(src)
				next[src]++
				q.Post(at, kStep, nil, id)
				ref.push(at, id)
			}
			q.Register(kStep, func(_ any, id int64) {
				ran = id
				if id%2 == 0 && hops < 5000 {
					hops++
					post(q.Now()+Time(hops%c.hopMod), 0)
				}
			})
			post(0, 0)
			r := rng.New(3)
			for step := 0; q.Step(); step++ {
				// The handler's own post is already mirrored; it sorts after
				// the event being dispatched, so popping now still yields
				// that event.
				at, id := ref.pop()
				if ran != id || q.Now() != at {
					t.Fatalf("dispatch %d: calendar ran id %d at t=%d, (at, seq) order wants id %d at t=%d",
						step, ran, q.Now(), id, at)
				}
				if r.Intn(c.every) == 0 && next[1] < c.external {
					delay, n := c.round(r)
					for ; n > 0; n-- {
						post(q.Now()+delay, 1)
					}
				}
			}
			if ref.h.Len() != 0 {
				t.Fatalf("calendar drained with %d reference events left", ref.h.Len())
			}
			if want := uint64(next[0] + next[1]); q.Processed() != want {
				t.Fatalf("Processed = %d, want %d", q.Processed(), want)
			}
		})
	}
}

// freshQueue returns a queue holding new, empty calendar storage, so a
// test that counts chunks does not depend on what a released ring kept.
func freshQueue() *Queue {
	return &Queue{ring: new(ring)}
}

// TestZeroAllocTypedPath pins the headline property of the typed core:
// steady-state post+dispatch of typed events allocates nothing.
func TestZeroAllocTypedPath(t *testing.T) {
	var q Queue
	const kNop Kind = 3
	type actor struct{ n int }
	a := &actor{}
	q.Register(kNop, func(ac any, arg int64) {
		ac.(*actor).n++
	})
	// Warm the ring and bucket slices first.
	for i := 0; i < ringSize*2; i++ {
		q.PostAfter(Time(i%8), kNop, a, 0)
		q.Step()
	}
	cycle := func() {
		q.PostAfter(3, kNop, a, 1)
		q.PostAfter(1, kNop, a, 2)
		q.PostFused(q.Now()+1, kNop, a, 3, 4)
		q.Step()
		q.Step()
		q.Step()
	}
	// A cycle fills buckets deeper than the plain warm-up did.
	for i := 0; i < ringSize*2; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Fatalf("typed post+dispatch allocated %v per run, want 0", allocs)
	}
}

// TestFusedCountsLogicalEvents pins the weighted-slot contract: a record
// posted by PostFused counts as its n events in Len while pending and in
// Processed and RunUntil's result once run, and dispatches once, in its
// FIFO place among plain posts.
func TestFusedCountsLogicalEvents(t *testing.T) {
	var q Queue
	rec := newRecorded(&q)
	q.Post(2, kRecord, rec, 1)
	q.PostFused(2, kRecord, rec, 2, 5)
	q.Post(2, kRecord, rec, 3)
	if got := q.Len(); got != 7 {
		t.Fatalf("Len = %d with a fused record of 5 and two plain posts pending, want 7", got)
	}
	if got := q.EngineStats().Len; got != 7 {
		t.Fatalf("EngineStats().Len = %d, want 7", got)
	}
	q.Step()
	if got := q.Processed(); got != 1 {
		t.Fatalf("Processed = %d after one plain dispatch, want 1", got)
	}
	q.Step()
	if got, want := q.Processed(), uint64(6); got != want {
		t.Fatalf("Processed = %d after the fused dispatch, want %d", got, want)
	}
	if got := q.Len(); got != 1 {
		t.Fatalf("Len = %d after the fused dispatch, want 1", got)
	}
	q.Step()
	if got := q.Len(); got != 0 || q.Processed() != 7 {
		t.Fatalf("Len = %d, Processed = %d when drained, want 0 and 7", got, q.Processed())
	}
	if len(rec.got) != 3 || rec.got[0] != 1 || rec.got[1] != 2 || rec.got[2] != 3 {
		t.Fatalf("dispatch order %v, want [1 2 3]", rec.got)
	}

	// The slow path (popNext, via RunUntil) carries the weight too.
	q.PostFused(q.Now()+3, kRecord, rec, 4, 3)
	q.Post(q.Now()+3, kRecord, rec, 5)
	if ran := q.RunUntil(q.Now() + 10); ran != 4 {
		t.Fatalf("RunUntil ran %d events, want 4", ran)
	}
	if got := q.Len(); got != 0 || q.Processed() != 11 {
		t.Fatalf("Len = %d, Processed = %d after RunUntil, want 0 and 11", got, q.Processed())
	}
}

// TestPostFusedPanics pins PostFused's contract: only in-window times at
// or after now, and a weight of at least one.
func TestPostFusedPanics(t *testing.T) {
	cases := []struct {
		name string
		post func(q *Queue)
	}{
		{"past", func(q *Queue) { q.PostFused(q.Now()-1, kRecord, nil, 0, 2) }},
		{"beyond window", func(q *Queue) { q.PostFused(q.Now()+ringSize, kRecord, nil, 0, 2) }},
		{"n zero", func(q *Queue) { q.PostFused(q.Now()+1, kRecord, nil, 0, 0) }},
		{"n negative", func(q *Queue) { q.PostFused(q.Now()+1, kRecord, nil, 0, -1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var q Queue
			q.Post(10, kRecord, newRecorded(&q), 0)
			q.Step()
			defer func() {
				if recover() == nil {
					t.Fatal("PostFused did not panic")
				}
				if q.Len() != 0 {
					t.Fatalf("Len = %d after a refused post, want 0", q.Len())
				}
			}()
			c.post(&q)
		})
	}
}

// TestRecordSizes pins the record layouts: the fused-weight field rides
// in padding, so a ring slot stays 32 bytes and a heap entry 48.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 32 {
		t.Fatalf("slot is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Fatalf("entry is %d bytes, want 48", got)
	}
}

func BenchmarkTypedScheduleAndRun(b *testing.B) {
	r := rng.New(1)
	var q Queue
	const kNop Kind = 4
	type actor struct{ n int }
	a := &actor{}
	q.Register(kNop, func(ac any, arg int64) { ac.(*actor).n++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PostAfter(Time(r.Intn(64)), kNop, a, 0)
		q.Step()
	}
}
