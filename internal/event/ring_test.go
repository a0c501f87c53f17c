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
// pending. Above shrinkCap events per cycle, busy buckets outgrow their
// own slices while they still hold events, so they borrow recycled
// slices and displace their small ones.
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

// heldActors counts the slots of q's calendar storage, up to capacity,
// that still hold an actor.
func heldActors(q *Queue) int {
	n := 0
	count := func(s []slot) {
		for _, x := range s[:cap(s)] {
			if x.actor != nil {
				n++
			}
		}
	}
	for i := range q.buckets {
		count(q.buckets[i].items)
	}
	for _, s := range q.pool {
		count(s)
	}
	for _, s := range q.smalls {
		count(s)
	}
	return n
}

// TestReleasedRingHoldsNoActor pins the invariant that lets a drained
// queue's ring outlive it: no slot up to capacity, in the buckets, the
// recycled slices or the displaced small slices, still references an
// actor, and every bucket is reset. A pooled ring that held one would pin
// the network that posted it.
func TestReleasedRingHoldsNoActor(t *testing.T) {
	q := freshQueue()
	runBurst(q, rng.New(7), &burstActor{}, 300)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after the burst drained", q.Len())
	}
	if n := heldActors(q); n != 0 {
		t.Fatalf("the drained ring still holds %d actors", n)
	}
	for i, b := range q.buckets {
		if b.head != 0 || len(b.items) != 0 {
			t.Fatalf("bucket %d of the drained ring has head %d and length %d, want 0 and 0", i, b.head, len(b.items))
		}
	}
	q.Release()
	if q.buckets != nil {
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
		if q.buckets == nil {
			t.Fatalf("Release dropped the ring with an event pending at %d", at)
		}
		if q.Drain(10); a.n != 1 {
			t.Fatalf("the event at %d ran %d times, want 1", at, a.n)
		}
	}
}

// TestReleasedRingServesNextQueue pins the reuse: after one queue runs a
// burst and releases its ring, a second queue running the same burst
// allocates no bucket storage. The burst stays well within shrinkCap
// events per cycle, so every slice it grows stays with its bucket; the
// queue's pool of larger slices does not travel with the ring.
func TestReleasedRingServesNextQueue(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random quarter of its puts")
	}
	// One P, whose pool cache hands back the ring just released once
	// the rings other tests released are taken out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for rings.Get() != nil {
	}
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
	fresh := bytes(func() { runBurst(first, r, a, 16) })
	if len(first.pool) != 0 {
		t.Fatal("the burst outgrew a bucket's own slice")
	}
	first.Release()
	second, r := &Queue{}, rng.New(7)
	if reused := bytes(func() { runBurst(second, r, a, 16) }); reused != 0 {
		t.Fatalf("the second queue allocated %d B running the burst (the first %d B); want 0 from the released ring", reused, fresh)
	}
}
