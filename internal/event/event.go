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
// When the last record already posted for the cycle is one PostFused
// wrote for the same kind, PostFused joins the post to it instead: the
// record's weight grows by n, no record is appended, and PostFused
// reports the join. A plain post or a record migrated from the far heap
// takes no join. The joined post runs exactly where its own record would
// have run, right after that record with nothing between them, but the
// queue keeps neither its actor nor its arg: the caller links the joined
// work to the record's actor, and the handler runs it. A kind posted
// through PostFused must therefore be posted only through it, so that
// every record of the kind reaches a handler written to run joined work.
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
//
// # Ring storage and lifetime
//
// A ring bucket stores its events in a chain of fixed chunks of
// chunkSlots slots and holds storage only while it holds events: the pop
// that finishes a chunk returns it to the ring's free list, which the
// next bucket to fill takes it from. A queue takes its calendar ring on
// its first post. Release hands an empty queue's ring, with at most
// keptChunks chunks of its free list, to a process-wide free list of
// rings, and the next queue to post takes it from there instead of
// allocating its 1,024 buckets and its chunks anew: a simulation that
// builds one network per probe grows the ring once per goroutine rather
// than once per probe. The list holds a few rings per GOMAXPROCS and
// drops any released beyond that. Discard does the same for a queue
// abandoned with events pending. Every slot is cleared when its event
// leaves or is discarded, so a released ring holds no actor and pins
// nothing of the network that used it.
package event

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

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

// chunkSlots is the number of slots in one bucket chunk, 2 KiB of them.
// A chunk's slots are contiguous, so dispatch reads them without a link
// load per slot; a cycle busier than one chunk chains more.
const chunkSlots = 64

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
	fused bool   // written by PostFused; only such a record takes joins
	extra uint32 // logical events beyond the first (see PostFused)
}

// weight is the number of logical events a slot stands for.
func (s *slot) weight() int { return 1 + int(s.extra) }

// chunk is a fixed run of bucket slots; n counts the slots written. Every
// chunk but a bucket's tail is full.
type chunk struct {
	slots [chunkSlots]slot
	next  *chunk
	n     int
}

// bucket is one cycle's FIFO within the calendar ring: a chain of chunks
// from head to tail, read from slot pos of head. An empty bucket holds no
// chunk, and a non-empty one has pos < head.n.
type bucket struct {
	head, tail *chunk
	pos        int
}

// keptChunks bounds the free chunks a released ring keeps, 128 KiB of
// them. A saturated load cell can end with several hundred chunks
// pending; a ring that kept them all would carry that peak into every
// later network.
const keptChunks = 64

// ringsPerP is how many released rings the free list holds per
// GOMAXPROCS. One network runs on one goroutine, so a goroutine that
// builds networks one after another needs one ring at a time.
const ringsPerP = 2

// ring is a queue's calendar storage: the buckets and the free list of
// chunks that no bucket holds. A chunk is allocated only when the free
// list is empty, so a ring keeps as many chunks as its pending cycles
// once needed at the same time. Release lists both together.
type ring struct {
	buckets [ringSize]bucket
	free    *chunk
}

// rings holds the rings of released queues (see Release), last released
// first.
var rings struct {
	sync.Mutex
	free []*ring
}

// Queue is a future-event list. The zero value is ready to use.
type Queue struct {
	now   Time
	seq   uint64
	ran   uint64
	table [MaxKinds]Handler

	// ring is the calendar storage, nil until the first post and again
	// after Release. ring.buckets[t&(ringSize-1)] holds events at cycle t
	// for t in [cursor, cursor+ringSize); pending counts the logical events
	// the ring's slots stand for.
	ring    *ring
	cursor  Time
	pending int
	far     []entry // overflow min-heap ordered by (at, seq)

	// Cumulative counters of the cold far-heap paths, reported through
	// EngineStats; the in-window post and dispatch paths count nothing.
	farPosts   uint64 // posts landing beyond the calendar window
	migrations uint64 // far-heap entries migrated into ring buckets
}

// EngineStats is a point-in-time snapshot of queue state for samplers.
// The counts are cumulative over the queue's life; samplers take deltas.
type EngineStats struct {
	Len        int    // pending events (ring + overflow)
	FarLen     int    // overflow-heap entries
	Processed  uint64 // events dispatched
	FarPosts   uint64 // posts landing beyond the calendar window
	Migrations uint64 // far-heap entries migrated into ring buckets
}

// EngineStats reports the queue's current occupancy and progress.
func (q *Queue) EngineStats() EngineStats {
	return EngineStats{Len: q.Len(), FarLen: len(q.far), Processed: q.ran, FarPosts: q.farPosts, Migrations: q.migrations}
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
	if q.ring == nil {
		q.takeRing()
	}
	if t < q.cursor+ringSize {
		q.bucketAppend(&q.ring.buckets[t&(ringSize-1)], slot{actor: actor, arg: arg, kind: k})
		return
	}
	heapPush(&q.far, entry{at: t, seq: q.seq, kind: k, actor: actor, arg: arg})
	q.seq++
	q.farPosts++
}

// PostFused schedules one record at time t that stands for n logical
// events: its handler must do the work of n events that would otherwise
// run back to back at t. Len and Processed count it as n. Only times
// inside the calendar window are accepted — fusion exists for the
// one-cycle flit hop, which is always in the window — and a time in the
// past, beyond the window, or n < 1 panics.
//
// If the last pending record at t is one PostFused wrote for kind k, the
// post joins it: its weight grows by n, actor and arg are dropped, and
// PostFused returns true (see "Fused events"). A join that would overflow
// the weight appends a new record instead.
func (q *Queue) PostFused(t Time, k Kind, actor any, arg int64, n int) bool {
	if q.ring == nil {
		q.takeRing()
	}
	if t < q.now || t >= q.cursor+ringSize || n < 1 || uint64(n) > 1<<32 {
		panic(fmt.Sprintf("event: fused post of %d events at %d, want n >= 1 and %d <= t < %d", n, t, q.now, q.cursor+ringSize))
	}
	b := &q.ring.buckets[t&(ringSize-1)]
	if c := b.tail; c != nil {
		if s := &c.slots[c.n-1]; s.fused && s.kind == k && uint64(n) <= math.MaxUint32-uint64(s.extra) {
			s.extra += uint32(n)
			q.pending += n
			return true
		}
	}
	q.bucketAppend(b, slot{actor: actor, arg: arg, kind: k, fused: true, extra: uint32(n - 1)})
	return false
}

// takeRing gives the queue a calendar ring: the last one released if the
// free list holds one, else empty buckets and no chunks.
func (q *Queue) takeRing() {
	rings.Lock()
	if k := len(rings.free); k > 0 {
		q.ring = rings.free[k-1]
		rings.free[k-1] = nil
		rings.free = rings.free[:k-1]
	}
	rings.Unlock()
	if q.ring == nil {
		q.ring = new(ring)
	}
	q.cursor = q.now
}

// Release hands the calendar ring of an empty queue, with up to
// keptChunks chunks of its free list, to the next queue that posts, in
// this goroutine or another. It does nothing while an event is pending.
// The queue stays usable: its next post takes a ring again. In an empty
// queue every bucket is empty and holds no chunk, and every chunk on the
// free list had each of its slots cleared as its event left, so the
// released ring holds no actor.
func (q *Queue) Release() {
	r := q.ring
	if r == nil || q.Len() != 0 {
		return
	}
	q.ring = nil
	c := r.free
	for i := 1; c != nil && i < keptChunks; i++ {
		c = c.next
	}
	if c != nil {
		c.next = nil
	}
	rings.Lock()
	if len(rings.free) < ringsPerP*runtime.GOMAXPROCS(0) {
		rings.free = append(rings.free, r)
	}
	rings.Unlock()
}

// Discard drops every pending event, in the ring and the far heap, and
// then releases the ring as Release does. It is for a queue abandoned
// with events still pending, such as a run cut off at its time limit:
// their handlers never run. Every slot is cleared as it is dropped, so
// the released ring holds no actor.
func (q *Queue) Discard() {
	if r := q.ring; r != nil {
		for i := range r.buckets {
			b := &r.buckets[i]
			for c := b.head; c != nil; {
				next := c.next
				clear(c.slots[:c.n])
				c.next, c.n = r.free, 0
				r.free = c
				c = next
			}
			*b = bucket{}
		}
	}
	q.pending = 0
	q.far = nil
	q.Release()
}

// bucketAppend adds a slot at the tail of a ring bucket. When the tail
// chunk is full or the bucket holds none, it links on a chunk from the
// free list, or a new one. bucketAppend and bucketPop are the post and
// dispatch hot paths and just fit the compiler's inlining budget.
func (q *Queue) bucketAppend(b *bucket, s slot) {
	c := b.tail
	if c == nil || c.n == chunkSlots {
		if c = q.ring.free; c != nil {
			q.ring.free, c.next = c.next, nil
		} else {
			c = new(chunk)
		}
		if b.tail == nil {
			b.head = c
		} else {
			b.tail.next = c
		}
		b.tail = c
	}
	c.slots[c.n] = s
	c.n++
	q.pending += s.weight()
}

// bucketPop removes and returns the first slot of the non-empty bucket b,
// clearing its actor. The pop that finishes a chunk moves it to the free
// list.
func (q *Queue) bucketPop(b *bucket) slot {
	c := b.head
	s := c.slots[b.pos]
	c.slots[b.pos].actor = nil // release the actor
	q.pending -= s.weight()
	if b.pos++; b.pos == c.n {
		b.head, b.pos = c.next, 0
		if b.head == nil {
			b.tail = nil
		}
		c.next, c.n = q.ring.free, 0
		q.ring.free = c
	}
	return s
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
	b := &q.ring.buckets[q.cursor&(ringSize-1)]
	if b.head == nil {
		return false
	}
	s := q.bucketPop(b)
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
// logical events, and a fused record runs whole, posts joined to it
// included: one that straddles the budget can overrun it by nearly its
// whole weight.
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
		if b := &q.ring.buckets[q.cursor&(ringSize-1)]; b.head != nil {
			if q.cursor > limit {
				return entry{}, false
			}
			s := q.bucketPop(b)
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
		q.bucketAppend(&q.ring.buckets[e.at&(ringSize-1)], slot{actor: e.actor, arg: e.arg, kind: e.kind, extra: e.extra})
		q.migrations++
	}
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
	*h = s
	return top
}
