package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mcastsim/internal/mcast"
	"mcastsim/internal/obs"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// span is one timed call into a layer of the simulator. Times are
// nanoseconds since the tracer started; Parent indexes the enclosing span
// (-1 for none) and Op is the op the call belongs to (-1 during set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps the spans of a traced run in memory and the counters taken
// at the same call boundaries. A nil *tracer is the untraced run: every
// method is a no-op, so workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int

	planAllocs []float64 // heap allocations of each Scheme.Plan call
	liveMB     []float64 // heap retained by each updown.New
	obs        obsTotals // in-simulator counters of the traced ops
}

func newTracer() *tracer {
	// Pre-sized so that appending a span does not allocate inside the
	// allocation counts taken around Scheme.Plan.
	return &tracer{t0: time.Now(), op: -1, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// setOp tags the spans that follow with an op id (-1: set-up).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// recorder returns a fresh obs recorder for one op's networks, or nil on
// the untraced run (sim.WithObs and traffic.WithObs treat nil as off).
func (t *tracer) recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return obs.NewRecorder(obs.Config{})
}

// absorb folds a finished recorder's series into the traced totals.
func (t *tracer) absorb(r *obs.Recorder) {
	if t != nil && r != nil {
		t.obs.add(r.Samples())
	}
}

// durations returns the lengths in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// count returns how many spans named name were opened while op was set to
// an op id (opsOnly) or during set-up.
func (t *tracer) count(name string, opsOnly bool) int {
	c := 0
	for _, s := range t.spans {
		if s.Name == name && (s.Op >= 0) == opsOnly {
			c++
		}
	}
	return c
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's length minus the time its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start) / 1e9
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= float64(s.End-s.Start) / 1e9
		}
	}
	return self
}

// write stores the spans as JSON lines and prints the per-name self time
// to standard error.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "self time %-28s %10.3f s\n", n, self[n])
	}
	return nil
}

// buildRouting times updown.New and, on a traced run, the heap the
// routing state retains.
func buildRouting(t *tracer, topo *topology.Topology) (*updown.Routing, error) {
	var before uint64
	if t != nil {
		before = liveHeap()
	}
	id := t.begin("updown.New")
	rt, err := updown.New(topo)
	t.end(id)
	if t != nil && err == nil {
		t.liveMB = append(t.liveMB, float64(int64(liveHeap())-int64(before))/1e6)
	}
	return rt, err
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timedScheme wraps a multicast scheme so every Plan call is a span with
// its allocation count. Only header-encoded schemes may be wrapped inside
// traffic churn mode: groupplan recognizes the NI k-binomial scheme by its
// concrete type, and a wrapper would switch it to full regeneration.
type timedScheme struct {
	mcast.Scheme
	tr *tracer
}

func (s timedScheme) Plan(rt *updown.Routing, p sim.Params, src topology.NodeID, dests []topology.NodeID, msgFlits int) (*sim.Plan, error) {
	if s.tr == nil {
		return s.Scheme.Plan(rt, p, src, dests, msgFlits)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	id := s.tr.begin("Scheme.Plan")
	plan, err := s.Scheme.Plan(rt, p, src, dests, msgFlits)
	s.tr.end(id)
	runtime.ReadMemStats(&ms)
	s.tr.planAllocs = append(s.tr.planAllocs, float64(ms.Mallocs-m0))
	return plan, err
}

// obsTotals accumulates obs snapshot series: interval counters are
// summed, instantaneous depths keep their maximum.
type obsTotals struct {
	events, flitHops, stalls, conflicts, deferred, farPosts, migrations int64
	queueMax, farMax, bufOccMax, sendMax, recvMax                       int64
}

func (o *obsTotals) add(samples []obs.Snapshot) {
	for i := range samples {
		s := &samples[i]
		o.events += int64(s.Events)
		o.flitHops += s.FlitHops
		o.farPosts += int64(s.FarPosts)
		o.migrations += int64(s.Migrations)
		o.stalls += sum(s.ChanStalls)
		o.conflicts += sum(s.ArbConflicts)
		o.deferred += sum(s.NIDeferred)
		o.queueMax = max(o.queueMax, s.QueueLen)
		o.farMax = max(o.farMax, s.FarLen)
		o.bufOccMax = max(o.bufOccMax, maxOf(s.BufOcc))
		o.sendMax = max(o.sendMax, maxOf(s.NISend))
		o.recvMax = max(o.recvMax, maxOf(s.NIRecv))
	}
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
