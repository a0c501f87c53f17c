package event

import (
	"runtime"
	"testing"

	"mcastsim/internal/rng"
)

const kBurst Kind = 5

type burstActor struct{ n int }

// runBurst registers a counting handler and runs waves of posts for a
// through q until it drains: each wave posts up to perCycle events at
// each of four random in-window cycles, then runs half of what is
// pending. Above chunkSlots events per cycle, busy buckets chain chunks
// while they still hold events.
func runBurst(q *Queue, r *rng.Source, a *burstActor, perCycle int) {
	q.Register(kBurst, func(a any, _ int64) { a.(*burstActor).n++ })
	for wave := 0; wave < 200; wave++ {
		for c := 0; c < 4; c++ {
			at := q.Now() + 1 + Time(r.Intn(ringSize-2))
			for k := r.Intn(perCycle); k >= 0; k-- {
				q.Post(at, kBurst, a, 0)
			}
		}
		for i := q.Len() / 2; i > 0; i-- {
			q.Step()
		}
	}
	for q.Step() {
	}
}

// chunks lists the chunks of q's calendar storage: those the buckets
// hold, then the free list.
func chunks(q *Queue) []*chunk {
	var cs []*chunk
	for i := range q.ring.buckets {
		for c := q.ring.buckets[i].head; c != nil; c = c.next {
			cs = append(cs, c)
		}
	}
	for c := q.ring.free; c != nil; c = c.next {
		cs = append(cs, c)
	}
	return cs
}

// heldActors counts the slots of q's chunks, every one of chunkSlots,
// that still hold an actor.
func heldActors(q *Queue) int {
	n := 0
	for _, c := range chunks(q) {
		for _, x := range c.slots {
			if x.actor != nil {
				n++
			}
		}
	}
	return n
}

// TestReleasedRingHoldsNoActor pins the invariant that lets a drained
// queue's ring outlive it: no slot of any chunk, in the buckets or on the
// free list, still references an actor, and no bucket holds a chunk. A
// pooled ring that held an actor would pin the network that posted it.
func TestReleasedRingHoldsNoActor(t *testing.T) {
	q := freshQueue()
	runBurst(q, rng.New(7), &burstActor{}, 300)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after the burst drained", q.Len())
	}
	if n := heldActors(q); n != 0 {
		t.Fatalf("the drained ring still holds %d actors", n)
	}
	for i, b := range q.ring.buckets {
		if b.head != nil || b.tail != nil || b.pos != 0 {
			t.Fatalf("bucket %d of the drained ring holds a chunk or has pos %d", i, b.pos)
		}
	}
	q.Release()
	if q.ring != nil {
		t.Fatal("Release kept the ring")
	}
	// The queue stays usable: its next post takes a ring again.
	a := &burstActor{}
	q.Post(q.Now()+3, kBurst, a, 0)
	if !q.Step() || a.n != 1 {
		t.Fatal("the released queue did not run a new post")
	}
}

// TestReleaseKeepsPendingRing pins Release's guard: a queue with a
// pending event, in the ring or the far heap, keeps its storage.
func TestReleaseKeepsPendingRing(t *testing.T) {
	for _, at := range []Time{5, 3 * ringSize} {
		q := freshQueue()
		a := &burstActor{}
		q.Register(kBurst, func(a any, _ int64) { a.(*burstActor).n++ })
		q.Post(at, kBurst, a, 0)
		q.Release()
		if q.ring == nil {
			t.Fatalf("Release dropped the ring with an event pending at %d", at)
		}
		if q.Drain(10); a.n != 1 {
			t.Fatalf("the event at %d ran %d times, want 1", at, a.n)
		}
	}
}

// TestReleasedRingServesNextQueue pins the reuse: after one queue runs a
// burst and releases its ring, a second queue running the same burst
// allocates nothing. A wave puts up to 300 events into a cycle, so busy
// cycles chain several chunks, 34 in all, fewer than keptChunks; the
// free list travels with the ring, so the second queue finds every chunk
// the first one opened.
func TestReleasedRingServesNextQueue(t *testing.T) {
	takeAllRings()
	bytes := func(f func()) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	a := &burstActor{}
	first, r := freshQueue(), rng.New(7)
	fresh := bytes(func() { runBurst(first, r, a, 300) })
	if n := len(chunks(first)); n > keptChunks {
		t.Fatalf("the burst grew %d chunks, more than the %d a released ring keeps", n, keptChunks)
	}
	first.Release()
	second, r := &Queue{}, rng.New(7)
	if reused := bytes(func() { runBurst(second, r, a, 300) }); reused != 0 {
		t.Fatalf("the second queue allocated %d B running the burst (the first %d B); want 0 from the released ring", reused, fresh)
	}
}

// takeAllRings empties the process-wide free list of rings.
func takeAllRings() {
	rings.Lock()
	clear(rings.free)
	rings.free = rings.free[:0]
	rings.Unlock()
}

// TestReleaseCapsKeptChunks pins the bound on what a released ring
// carries: at most keptChunks free chunks, however many it grew.
func TestReleaseCapsKeptChunks(t *testing.T) {
	takeAllRings()
	q := freshQueue()
	rec := newRecorded(q)
	// One event in each of 200 cycles: one chunk per cycle.
	for i := int64(0); i < 200; i++ {
		q.Post(Time(1+i), kRecord, rec, i)
	}
	for q.Step() {
	}
	if n := len(chunks(q)); n != 200 {
		t.Fatalf("the drained ring holds %d chunks, want 200", n)
	}
	q.Release()
	next := &Queue{}
	next.Post(1, kRecord, rec, 0)
	if n := len(chunks(next)); n != keptChunks {
		t.Fatalf("the next queue took a ring of %d chunks, want %d", n, keptChunks)
	}
}

// TestReleaseBoundsFreeRings pins the bound on the free list: rings
// released beyond ringsPerP per GOMAXPROCS are dropped.
func TestReleaseBoundsFreeRings(t *testing.T) {
	takeAllRings()
	limit := ringsPerP * runtime.GOMAXPROCS(0)
	for i := 0; i < limit+3; i++ {
		q := freshQueue()
		q.Register(kBurst, func(any, int64) {})
		q.Post(1, kBurst, &burstActor{}, 0)
		q.Step()
		q.Release()
	}
	rings.Lock()
	n := len(rings.free)
	rings.Unlock()
	if n != limit {
		t.Fatalf("the free list holds %d rings after %d releases, want %d", n, limit+3, limit)
	}
}

// TestDiscardClearsPendingRing pins Discard on a queue abandoned with
// events pending in chained ring buckets and in the far heap: Len drops
// to 0, no slot of any chunk still holds an actor, no bucket holds a
// chunk, and the next queue takes the ring.
func TestDiscardClearsPendingRing(t *testing.T) {
	takeAllRings()
	q := freshQueue()
	a := &burstActor{}
	q.Register(kBurst, func(a any, _ int64) { a.(*burstActor).n++ })
	for k := 0; k < 3*chunkSlots; k++ {
		q.Post(7, kBurst, a, 0)
	}
	for at := Time(8); at < 40; at++ {
		q.Post(at, kBurst, a, 0)
	}
	q.Post(5*ringSize, kBurst, a, 0)
	// Stop inside cycle 7's second chunk: its first is back on the free
	// list, and the second is partly popped.
	for i := 0; i < chunkSlots+5; i++ {
		q.Step()
	}
	if a.n != chunkSlots+5 || q.Len() != 3*chunkSlots+32+1-a.n {
		t.Fatalf("ran %d events with %d pending before the discard", a.n, q.Len())
	}
	r := q.ring
	q.Discard()
	if q.Len() != 0 || q.ring != nil {
		t.Fatalf("after Discard: Len = %d, ring kept = %v", q.Len(), q.ring != nil)
	}
	held := &Queue{ring: r}
	if n := heldActors(held); n != 0 {
		t.Fatalf("the discarded ring still holds %d actors", n)
	}
	for i, b := range r.buckets {
		if b.head != nil || b.tail != nil || b.pos != 0 {
			t.Fatalf("bucket %d of the discarded ring holds a chunk or has pos %d", i, b.pos)
		}
	}
	next := &Queue{}
	next.Post(1, kBurst, a, 0)
	if next.ring != r {
		t.Fatal("the next queue did not take the discarded ring")
	}
	ran := a.n
	if q.Drain(100); a.n != ran {
		t.Fatalf("discarded events ran: %d more", a.n-ran)
	}
}

// TestChunkBoundAfterBursts pins the storage rule: a queue holds no more
// than ceil(events in a cycle / chunkSlots) chunks for each cycle pending
// at the same time. Far events that migrate into one bucket fill its tail
// chunk before opening another, and a drained burst's chunks serve the
// next burst from the free list.
func TestChunkBoundAfterBursts(t *testing.T) {
	need := func(perCycle map[Time]int) int {
		n := 0
		for _, k := range perCycle {
			n += (k + chunkSlots - 1) / chunkSlots
		}
		return n
	}
	q := freshQueue()
	rec := newRecorded(q)
	// Far burst: 20,000 events over 97 cycles beyond the window, which
	// migrate into the ring together once the queue jumps to them.
	far := map[Time]int{}
	for i := int64(0); i < 20_000; i++ {
		at := ringSize*2 + Time(i%97)
		q.Post(at, kRecord, rec, i)
		far[at]++
	}
	for q.Step() {
	}
	bound := need(far)
	if got := len(chunks(q)); got > bound {
		t.Fatalf("after a far burst over %d cycles: %d chunks, want at most %d", len(far), got, bound)
	}
	// Same-cycle burst.
	base := q.Now() + 1
	for i := int64(0); i < 20_000; i++ {
		q.Post(base, kRecord, rec, i)
	}
	for q.Step() {
	}
	bound = max(bound, need(map[Time]int{base: 20_000}))
	if got := len(chunks(q)); got > bound {
		t.Fatalf("after a one-cycle burst: %d chunks, want at most %d", got, bound)
	}
}
