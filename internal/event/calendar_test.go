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
		if !q.PostFused(q.Now()+1, kNop, a, 4, 2) {
			t.Fatal("second fused post of the cycle did not join")
		}
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

// TestFusedJoin pins the join rule: a fused post joins the last pending
// record of its cycle only when PostFused wrote that record for the same
// kind, and the joined weight counts everywhere the record's own does.
func TestFusedJoin(t *testing.T) {
	t.Run("counts", func(t *testing.T) {
		var q Queue
		rec := newRecorded(&q)
		if q.PostFused(2, kRecord, rec, 1, 3) {
			t.Fatal("first fused post of a cycle joined")
		}
		if !q.PostFused(2, kRecord, rec, 2, 4) {
			t.Fatal("fused post behind a fused record of its kind did not join")
		}
		if got := q.Len(); got != 7 {
			t.Fatalf("Len = %d with 3 events joined by 4, want 7", got)
		}
		q.Step()
		if q.Processed() != 7 || q.Len() != 0 {
			t.Fatalf("Processed = %d, Len = %d after the joined record, want 7 and 0", q.Processed(), q.Len())
		}
		if len(rec.got) != 1 || rec.got[0] != 1 {
			t.Fatalf("dispatches %v, want the first post's record alone: [1]", rec.got)
		}
	})
	t.Run("no join", func(t *testing.T) {
		const kOther Kind = 2
		cases := []struct {
			name string
			tail func(q *Queue, rec *recorder) Time // leaves a record pending at the returned cycle
		}{
			{"empty bucket", func(q *Queue, rec *recorder) Time { return q.Now() + 1 }},
			{"drained current bucket", func(q *Queue, rec *recorder) Time {
				q.PostFused(q.Now()+1, kRecord, rec, 0, 2)
				q.Step()
				return q.Now()
			}},
			{"plain record of another kind", func(q *Queue, rec *recorder) Time {
				q.PostFused(q.Now()+1, kRecord, rec, 0, 2)
				q.Post(q.Now()+1, kOther, rec, 0)
				return q.Now() + 1
			}},
			{"fused record of another kind", func(q *Queue, rec *recorder) Time {
				q.PostFused(q.Now()+1, kOther, rec, 0, 2)
				return q.Now() + 1
			}},
			{"plain record of the kind", func(q *Queue, rec *recorder) Time {
				q.Post(q.Now()+1, kRecord, rec, 0)
				return q.Now() + 1
			}},
			{"record migrated from the far heap", func(q *Queue, rec *recorder) Time {
				far := q.Now() + ringSize + 5
				q.Post(far, kRecord, rec, 0)
				q.Post(q.Now()+10, kOther, rec, 0)
				q.Step() // the cursor reaches far-ringSize+10, pulling far into the ring
				if q.EngineStats().Migrations != 1 {
					t.Fatal("far record did not migrate")
				}
				return far
			}},
		}
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				q := freshQueue()
				rec := newRecorded(q)
				q.Register(kOther, func(any, int64) {})
				at := c.tail(q, rec)
				before := q.Len()
				if q.PostFused(at, kRecord, rec, 9, 3) {
					t.Fatal("fused post joined")
				}
				if q.Len() != before+3 {
					t.Fatalf("Len = %d after a fused post of 3, want %d", q.Len(), before+3)
				}
				q.RunUntil(at)
				if n := len(rec.got); n == 0 || rec.got[n-1] != 9 {
					t.Fatalf("dispatches %v, want the fused post's own record last", rec.got)
				}
			})
		}
	})
	t.Run("partly drained current bucket", func(t *testing.T) {
		var q Queue
		rec := newRecorded(&q)
		q.Post(4, kRecord, rec, 1)
		q.PostFused(4, kRecord, rec, 2, 2)
		q.Step() // now 4; the fused record is still pending in this cycle's bucket
		if !q.PostFused(q.Now(), kRecord, rec, 3, 3) {
			t.Fatal("fused post into the current cycle did not join its pending fused record")
		}
		if q.Len() != 5 {
			t.Fatalf("Len = %d, want 5", q.Len())
		}
		q.Step()
		if q.Processed() != 6 || q.Len() != 0 || len(rec.got) != 2 || rec.got[1] != 2 {
			t.Fatalf("Processed = %d, Len = %d, dispatches %v; want 6, 0 and [1 2]", q.Processed(), q.Len(), rec.got)
		}
	})
	t.Run("full tail chunk", func(t *testing.T) {
		q := freshQueue()
		rec := newRecorded(q)
		for i := 1; i < chunkSlots; i++ {
			q.Post(1, kRecord, rec, 0)
		}
		q.PostFused(1, kRecord, rec, 0, 2) // the chunk's last slot
		b := &q.ring.buckets[1]
		tail := b.tail
		if b.head != tail || tail.n != chunkSlots {
			t.Fatal("setup did not fill exactly one chunk")
		}
		if !q.PostFused(1, kRecord, rec, 0, 5) {
			t.Fatal("fused post behind a full chunk's fused last slot did not join")
		}
		if b.tail != tail || tail.next != nil || tail.n != chunkSlots {
			t.Fatal("a join opened a chunk")
		}
		if got := tail.slots[chunkSlots-1].weight(); got != 7 {
			t.Fatalf("joined slot weighs %d, want 7", got)
		}
	})
	t.Run("weight overflow", func(t *testing.T) {
		var q Queue
		rec := newRecorded(&q)
		q.PostFused(1, kRecord, rec, 1, 1<<32-3)
		if !q.PostFused(1, kRecord, rec, 2, 3) {
			t.Fatal("join filling the weight exactly was refused")
		}
		if q.PostFused(1, kRecord, rec, 3, 1) {
			t.Fatal("join overflowing the weight was accepted")
		}
		if got, want := q.Len(), 1<<32+1; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
		q.RunUntil(1)
		if got, want := q.Processed(), uint64(1<<32+1); got != want || len(rec.got) != 2 || rec.got[1] != 3 {
			t.Fatalf("Processed = %d, dispatches %v; want %d and [1 3]", got, rec.got, want)
		}
	})
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
			rec := newRecorded(&q)
			q.Post(10, kRecord, rec, 0)
			q.Step()
			// Joinable records in the buckets the refused posts name: a
			// refusal must come before any join.
			q.PostFused(q.Now(), kRecord, rec, 0, 2)
			q.PostFused(q.Now()+1, kRecord, rec, 0, 2)
			defer func() {
				if recover() == nil {
					t.Fatal("PostFused did not panic")
				}
				if q.Len() != 4 {
					t.Fatalf("Len = %d after a refused post, want 4", q.Len())
				}
			}()
			c.post(&q)
		})
	}
}

// TestRecordSizes pins the record layouts: the fused weight and flag ride
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
