// Package event provides the discrete-event core of the simulator: a
// monotonic clock and a deterministic schedule of typed event records.
//
// Time is measured in integer cycles (the paper's 10 ns switch cycle).
// Events scheduled for the same cycle run in scheduling order (FIFO), which
// keeps the simulator deterministic without imposing artificial sub-cycle
// ordering on unrelated components.
//
// # Typed events
//
// An event is a small fixed-size record {at, seq, kind, actor, arg}
// dispatched through a per-queue jump table (Register/Post/PostAfter).
// Storing a pointer-shaped actor in the record instead of capturing it in
// a closure removes the per-event heap allocation that dominated the old
// engine's profile; the steady-state flit pipeline posts and dispatches
// with zero allocations.
//
// Typed-kind registration (Register + Post/PostAfter) is the only
// scheduling API: every event type is a Kind with a registered handler,
// so a post stores a fixed-size record and a dispatch is one indexed
// call, with no closure to allocate.
//
// # Fused events
//
// PostFused schedules one record that stands for n logical events: its
// handler runs what would otherwise be n back-to-back records of the same
// cycle. Len, Processed, RunUntil's result and Drain's budget all count
// logical events, so fusing changes how a run is executed, never what is
// counted.
//
// # Scheduling structure
//
// The queue is a hierarchical calendar queue: a power-of-two
// ring of per-cycle FIFO buckets covering the near-future window
// [cursor, cursor+ringSize), plus a binary-heap overflow for events
// beyond the window. Posting within the window — which covers every
// link/routing/crossbar delay in the simulator — is O(1) append; far
// events (timeouts, fault injections, stall watchdogs) take the heap
// path and migrate into the ring, in (at, seq) order, exactly when their
// cycle enters the window, so FIFO-within-cycle is preserved end to end.
package event

import "fmt"

// Time is a simulation timestamp in cycles.
type Time int64

// maxTime is an unreachable timestamp used as "no limit".
const maxTime = Time(1) << 62

// Kind identifies an event type registered in the queue's jump table.
type Kind uint8

// MaxKinds bounds the jump table; kinds are small dense integers.
const MaxKinds = 32

// Handler executes one typed event. The actor is the pointer-shaped value
// given at post time (a buffer, a branch, a network); arg is a free
// integer payload (port index, epoch, message ID).
type Handler func(actor any, arg int64)

// ringSize is the calendar window in cycles. Every pipeline delay in the
// simulator (link, routing, crossbar, DMA setup) is far below this, so
// steady-state posts are O(1) ring appends; only long timers overflow.
// Must be a power of two.
const ringSize = 1024

// shrinkCap is the capacity below which backing slices are never shrunk.
const shrinkCap = 64

// smallsMax bounds the displaced-small-slice pool (see Queue.smalls);
// 32 slices of at most shrinkCap entries is ~100 KB worst case.
const smallsMax = 32

// occEpoch is the occupancy high-water window, in drained cycles (see
// Queue.occCur). Shorter windows shrink faster after a burst; longer ones
// tolerate longer gaps between bursts without eviction churn.
const occEpoch = 256

// entry is one scheduled event in the far overflow heap. 48 bytes; actor
// holds only pointer-shaped values (pointers, func values), so posting
// never boxes. Popped ring slots travel as entries too, so an entry
// carries a slot's extra count; the far heap itself never holds a fused
// record, because PostFused accepts only in-window times.
type entry struct {
	at    Time
	seq   uint64
	arg   int64
	actor any
	kind  Kind
	extra uint32 // logical events beyond the first (see PostFused)
}

// slot is one scheduled event within a calendar ring bucket. The bucket
// fixes the cycle and the position fixes the FIFO rank, so neither the
// timestamp nor a sequence number is stored: 32 bytes instead of the
// heap entry's 48, on the path that carries virtually every event.
type slot struct {
	actor any
	arg   int64
	kind  Kind
	extra uint32 // logical events beyond the first (see PostFused)
}

// weight is the number of logical events a slot stands for.
func (s *slot) weight() int { return 1 + int(s.extra) }

// bucket is one cycle's FIFO within the calendar ring. head avoids
// shifting on pop; the slice resets (and may shrink) once emptied.
type bucket struct {
	head  int
	items []slot
}

// Queue is a future-event list. The zero value is ready to use.
type Queue struct {
	now   Time
	seq   uint64
	ran   uint64
	table [MaxKinds]Handler

	// buckets[t&(ringSize-1)] holds events at cycle t
	// for t in [cursor, cursor+ringSize); pending counts the logical
	// events the ring's slots stand for.
	buckets []bucket
	cursor  Time
	pending int
	far     []entry // overflow min-heap ordered by (at, seq)
	// pool recycles large bucket slices between cycles. Only a handful of
	// buckets are occupied at any instant, but over a run every ring slot
	// hosts a busy cycle eventually; without the pool each of the 1024
	// buckets grows its own peak-sized slice (at one point ~90% of the
	// drain benchmark's allocations). Drained buckets above shrinkCap
	// retire their slice here and buckets that outgrow their own slice
	// borrow from it (see bucketAppend).
	pool [][]slot
	// occCur/occPrev track the per-cycle occupancy high-water over the
	// current and previous occEpoch-reset windows; occHi() (their max) is
	// the retention yardstick. Two-epoch max is deliberately a step
	// function rather than a smooth decay: occupancy dips shorter than an
	// epoch cannot evict slices that the next burst will need, while a
	// genuinely quiet stretch rotates both windows down within two epochs
	// and lets resetBucket shed the relics of the last burst.
	occCur, occPrev, occCount int
	// smalls holds bucket slices (cap <= shrinkCap) displaced when their
	// bucket borrowed a larger pooled slice. resetBucket re-attaches one
	// whenever it retires a large slice, so a slot that hosted a burst is
	// never left empty-handed — without this, every busy cycle re-ran the
	// 1->2->...->shrinkCap append ramp from nil, which dominated the
	// queue's allocation profile. Bounded at smallsMax; extras go to the
	// collector.
	smalls [][]slot

	// obs, when non-nil, receives cold-path scheduling counters. The
	// in-window Post fast path and fastStep are deliberately untouched:
	// the only instrumented sites are the far-heap overflow and far→ring
	// migration, both of which are off the steady flit path, so the
	// disabled AND enabled cases both stay allocation-free and
	// branch-free where it matters.
	obs *EngineObs
}

// EngineObs accumulates scheduler counters for an attached observer. All
// fields are cumulative; samplers take deltas. The struct is plain data
// (no methods, no locks): the queue's single-goroutine contract covers it.
type EngineObs struct {
	FarPosts   uint64 // posts landing beyond the calendar window
	Migrations uint64 // far-heap entries migrated into ring buckets
}

// SetObs attaches (or, with nil, detaches) a counter sink. The sink may
// be shared across successive queues; counters keep accumulating.
func (q *Queue) SetObs(o *EngineObs) { q.obs = o }

// EngineStats is a point-in-time snapshot of queue state for samplers.
type EngineStats struct {
	Len       int    // pending events (ring + overflow)
	FarLen    int    // overflow-heap entries
	Processed uint64 // cumulative events dispatched
}

// EngineStats reports the queue's current occupancy and progress. Unlike
// EngineObs it is polled, not pushed, so it costs nothing when unused.
func (q *Queue) EngineStats() EngineStats {
	return EngineStats{Len: q.Len(), FarLen: len(q.far), Processed: q.ran}
}

// Now returns the current simulation time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events. A fused record counts as
// the n events it stands for.
func (q *Queue) Len() int { return q.pending + len(q.far) }

// Processed returns the total number of events executed, a cheap progress
// measure used by deadlock watchdogs. A fused record counts as the n
// events it stands for.
func (q *Queue) Processed() uint64 { return q.ran }

// Cap reports the total backing capacity, in entries, across the queue's
// internal structures. Exposed for shrink-policy regression tests.
func (q *Queue) Cap() int {
	c := cap(q.far)
	for i := range q.buckets {
		c += cap(q.buckets[i].items)
	}
	for _, s := range q.pool {
		c += cap(s)
	}
	for _, s := range q.smalls {
		c += cap(s)
	}
	return c
}

// Register installs the handler for a typed kind. Registering an
// out-of-range kind panics; re-registering replaces the handler.
func (q *Queue) Register(k Kind, h Handler) {
	if k >= MaxKinds {
		panic(fmt.Sprintf("event: cannot register kind %d", k))
	}
	q.table[k] = h
}

// Post schedules a typed event at absolute time t. Scheduling in the past
// panics: it always indicates a model bug, and silently clamping would
// hide it.
//
// A sequence number is drawn only on the far-heap path: ring slots order
// by position, and any event migrating from the far heap enters its bucket
// before any direct post to that cycle can happen, so FIFO-within-cycle
// holds without per-post numbering.
func (q *Queue) Post(t Time, k Kind, actor any, arg int64) {
	if t < q.now {
		panic(fmt.Sprintf("event: scheduling at %d before now %d", t, q.now))
	}
	if q.buckets == nil {
		q.buckets = make([]bucket, ringSize)
		q.cursor = q.now
	}
	if t < q.cursor+ringSize {
		b := &q.buckets[t&(ringSize-1)]
		if len(b.items) < cap(b.items) {
			// Hot path: an in-window post into a bucket with headroom is
			// a plain append.
			b.items = append(b.items, slot{actor: actor, arg: arg, kind: k})
			q.pending++
			return
		}
		q.bucketAppend(b, slot{actor: actor, arg: arg, kind: k})
		return
	}
	heapPush(&q.far, entry{at: t, seq: q.seq, kind: k, actor: actor, arg: arg})
	q.seq++
	if q.obs != nil {
		q.obs.FarPosts++
	}
}

// PostFused schedules one record at time t that stands for n logical
// events: its handler must do the work of n events that would otherwise
// run back to back at t. Len and Processed count it as n. Only times
// inside the calendar window are accepted — fusion exists for the
// one-cycle flit hop, which is always in the window — and a time in the
// past, beyond the window, or n < 1 panics.
func (q *Queue) PostFused(t Time, k Kind, actor any, arg int64, n int) {
	if q.buckets == nil {
		q.buckets = make([]bucket, ringSize)
		q.cursor = q.now
	}
	if t < q.now || t >= q.cursor+ringSize || n < 1 || uint64(n) > 1<<32 {
		panic(fmt.Sprintf("event: fused post of %d events at %d, want n >= 1 and %d <= t < %d", n, t, q.now, q.cursor+ringSize))
	}
	b := &q.buckets[t&(ringSize-1)]
	s := slot{actor: actor, arg: arg, kind: k, extra: uint32(n - 1)}
	if len(b.items) < cap(b.items) {
		b.items = append(b.items, s)
		q.pending += n
		return
	}
	q.bucketAppend(b, s)
}

// bucketAppend adds an entry to a ring bucket, reusing pooled slices.
// Pool order is irrelevant to correctness — it only decides which backing
// array a cycle borrows.
//
// The borrow happens at the moment of growth, not only when the bucket is
// empty-handed: resetBucket leaves small (<= shrinkCap) slices attached to
// their bucket, so before this check every busy cycle re-grew its small
// slice up to the burst size through fresh allocations and the pooled
// peak-sized arrays went almost unused — the source of the PR 3 bytes/op
// regression on DrainLarge (see DESIGN.md §12).
func (q *Queue) bucketAppend(b *bucket, s slot) {
	if len(b.items) == cap(b.items) && len(q.pool) > 0 {
		if p := q.pool[len(q.pool)-1]; cap(p) > cap(b.items) {
			q.pool = q.pool[:len(q.pool)-1]
			p = p[:len(b.items)]
			copy(p, b.items)
			if c := cap(b.items); c > 0 && c <= shrinkCap && len(q.smalls) < smallsMax {
				q.smalls = append(q.smalls, b.items[:0])
			}
			b.items = p
		}
	}
	b.items = append(b.items, s)
	q.pending += s.weight()
}

// PostAfter schedules a typed event delay cycles from now.
func (q *Queue) PostAfter(delay Time, k Kind, actor any, arg int64) {
	if delay < 0 {
		panic("event: negative delay")
	}
	q.Post(q.now+delay, k, actor, arg)
}

// fastStep pops and dispatches the head of the current calendar bucket
// when one is immediately available at a cycle <= limit. This is the hot
// path of Step/RunUntil: no cursor walk and no 48-byte entry round-trip
// through popNext. Returns false (leaving the queue untouched) whenever
// the slow path must decide.
func (q *Queue) fastStep(limit Time) bool {
	if q.pending == 0 || q.cursor > limit {
		return false
	}
	b := &q.buckets[q.cursor&(ringSize-1)]
	if b.head >= len(b.items) {
		return false
	}
	s := b.items[b.head]
	b.items[b.head].actor = nil // release the actor
	b.head++
	q.pending -= s.weight()
	if b.head == len(b.items) {
		q.resetBucket(b)
	}
	q.now = q.cursor
	q.ran += uint64(s.weight())
	q.table[s.kind](s.actor, s.arg)
	return true
}

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (q *Queue) Step() bool {
	if q.fastStep(maxTime) {
		return true
	}
	e, ok := q.popNext(maxTime)
	if !ok {
		return false
	}
	q.dispatch(e)
	return true
}

// RunUntil executes events with timestamps <= limit, then advances the
// clock to limit (a limit already in the past leaves it unchanged). It
// returns the number of events run.
func (q *Queue) RunUntil(limit Time) uint64 {
	start := q.ran
	for {
		if q.fastStep(limit) {
			continue
		}
		e, ok := q.popNext(limit)
		if !ok {
			break
		}
		q.dispatch(e)
	}
	if q.now < limit {
		q.now = limit
	}
	return q.ran - start
}

// Drain runs events until none remain or maxEvents have executed; it
// returns true if the queue drained. maxEvents bounds runaway simulations
// (a livelocked model would otherwise spin forever). The budget counts
// logical events, and a fused record runs whole: one that straddles the
// budget overruns it by at most its n-1 extra events.
func (q *Queue) Drain(maxEvents uint64) bool {
	for start := q.ran; q.ran-start < maxEvents; {
		if !q.Step() {
			return true
		}
	}
	return q.Len() == 0
}

// dispatch advances the clock and executes one popped entry.
func (q *Queue) dispatch(e entry) {
	q.now = e.at
	q.ran += 1 + uint64(e.extra)
	q.table[e.kind](e.actor, e.arg)
}

// popNext removes and returns the earliest event with at <= limit, in
// strict (at, seq) order. The calendar cursor never advances past limit,
// preserving the invariant cursor <= now needed for in-window posting.
func (q *Queue) popNext(limit Time) (entry, bool) {
	for {
		if q.pending == 0 {
			if len(q.far) == 0 || q.far[0].at > limit {
				return entry{}, false
			}
			// Ring empty: jump the window straight to the next far
			// event (its cycle is >= cursor+ringSize, so no in-window
			// entry is skipped) and pull everything now in range.
			q.cursor = q.far[0].at
			q.migrateFar()
			continue
		}
		b := &q.buckets[q.cursor&(ringSize-1)]
		if b.head < len(b.items) {
			if q.cursor > limit {
				return entry{}, false
			}
			s := b.items[b.head]
			b.items[b.head].actor = nil // release the actor
			b.head++
			q.pending -= s.weight()
			if b.head == len(b.items) {
				q.resetBucket(b)
			}
			// Ring slots carry no seq; dispatch needs only the realized
			// order and the timestamp.
			return entry{at: q.cursor, kind: s.kind, actor: s.actor, arg: s.arg, extra: s.extra}, true
		}
		if q.cursor >= limit {
			return entry{}, false
		}
		q.cursor++
		q.migrateFar()
	}
}

// migrateFar moves far-heap events whose cycle has entered the window
// into their ring buckets. Heap pops come out in (at, seq) order and any
// direct post to those cycles can only happen afterwards (with a larger
// seq), so bucket FIFO order equals global (at, seq) order.
func (q *Queue) migrateFar() {
	for len(q.far) > 0 && q.far[0].at < q.cursor+ringSize {
		e := heapPop(&q.far)
		q.bucketAppend(&q.buckets[e.at&(ringSize-1)], slot{actor: e.actor, arg: e.arg, kind: e.kind, extra: e.extra})
		if q.obs != nil {
			q.obs.Migrations++
		}
	}
}

// resetBucket empties a drained bucket for reuse. Small slices (at most
// shrinkCap) stay attached to the bucket; larger ones always retire to the
// queue's pool so the next cycle to outgrow its own slice reuses them.
// The shrink policy lives at the borrow site (bucketAppend): dropping a
// big slice here whenever one cycle happened to underuse it — the previous
// policy — discarded arrays that the very next busy cycle had to reallocate,
// because per-cycle occupancy swings well past 4x within a single run.
// resetBucket's job in the decay scheme is only to maintain the occupancy
// high-water that bucketAppend's staleness test consults.
func (q *Queue) resetBucket(b *bucket) {
	if len(b.items) > q.occCur {
		q.occCur = len(b.items)
	}
	q.occCount++
	if q.occCount >= occEpoch {
		q.occPrev, q.occCur, q.occCount = q.occCur, 0, 0
	}
	hi := q.occCur
	if q.occPrev > hi {
		hi = q.occPrev
	}
	// Shed stale pool slices — relics of a burst no recent cycle has come
	// close to filling. One check per drained cycle keeps this amortized
	// O(1); the loop empties the whole backlog only when the high-water
	// has already collapsed.
	for len(q.pool) > 0 {
		if c := cap(q.pool[len(q.pool)-1]); c > shrinkCap && c > 4*hi {
			q.pool = q.pool[:len(q.pool)-1]
			continue
		}
		break
	}
	if cap(b.items) <= shrinkCap {
		b.items = b.items[:0]
	} else {
		q.pool = append(q.pool, b.items[:0])
		if n := len(q.smalls); n > 0 {
			b.items = q.smalls[n-1]
			q.smalls = q.smalls[:n-1]
		} else {
			b.items = nil
		}
	}
	b.head = 0
}

// --- the far-overflow binary min-heap, ordered by (at, seq) ---

func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func heapPush(h *[]entry, e entry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func heapPop(h *[]entry) entry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = entry{} // release the actor
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && entryLess(&s[l], &s[smallest]) {
			smallest = l
		}
		if r < len(s) && entryLess(&s[r], &s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	// Shrink after a burst: a drained backlog should not pin its peak
	// capacity for the rest of the run.
	if cap(s) > shrinkCap && len(s) < cap(s)/4 {
		ns := make([]entry, len(s), len(s)*2)
		copy(ns, s)
		s = ns
	}
	*h = s
	return top
}
