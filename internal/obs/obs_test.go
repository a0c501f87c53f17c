package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mcastsim/internal/event"
)

// fakeBundle builds a recorder-produced bundle with every field exercised,
// including sparse cumulative series and engine counters.
func fakeBundle(t *testing.T, cell string, samples int) Bundle {
	t.Helper()
	r := NewRecorder(Config{Every: 100})
	r.AttachNetwork([]string{"s0p0->s1", "s1p0->s0", "inj n0"}, 2, 1)
	var flits [3]int64
	var hops, stalls, conflicts, deferred int64
	var events, farPosts, migrations uint64
	for i := 0; i < samples; i++ {
		flits[0] += int64(10 * (i + 1))
		flits[2] += 3
		hops = flits[0] + flits[1] + flits[2]
		events += uint64(50 + i)
		farPosts += 2
		migrations++
		if i%2 == 0 {
			stalls++
			conflicts++
			deferred++
		}
		at := event.Time(100 * (i + 1))
		r.Sample(at, func(s *Snapshot) {
			copy(s.ChanFlits, flits[:])
			s.ChanStalls[0] = stalls
			s.BufOcc[0] = int64(i)
			s.ArbConflicts[1] = conflicts
			s.NISend[0] = int64(i % 3)
			s.NIRecv[0] = 1
			s.NIDeferred[0] = deferred
			s.FlitHops = hops
			s.Events = events
			s.QueueLen = int64(5 + i)
			s.FarLen = int64(i % 2)
			s.FarPosts = farPosts
			s.Migrations = migrations
		})
	}
	return r.Bundle(cell)
}

func TestRecorderDifferencesCumulativeSeries(t *testing.T) {
	b := fakeBundle(t, "cell/a", 4)
	if len(b.Snapshots) != 4 {
		t.Fatalf("got %d snapshots", len(b.Snapshots))
	}
	// fill wrote cumulative 10, 30, 60, 100 on channel 0; intervals must be
	// 10, 20, 30, 40.
	want := []int64{10, 20, 30, 40}
	for i, s := range b.Snapshots {
		if s.ChanFlits[0] != want[i] {
			t.Errorf("snapshot %d: chan 0 interval %d, want %d", i, s.ChanFlits[0], want[i])
		}
		if s.FarPosts != 2 || s.Migrations != 1 {
			t.Errorf("snapshot %d: engine interval far=%d migr=%d, want 2/1", i, s.FarPosts, s.Migrations)
		}
	}
	// Sparse series: stalls, conflicts and deferrals land on even sample
	// indices only.
	for i, s := range b.Snapshots {
		want := int64(0)
		if i%2 == 0 {
			want = 1
		}
		if s.ChanStalls[0] != want || s.ArbConflicts[1] != want || s.NIDeferred[0] != want {
			t.Errorf("snapshot %d: intervals stall=%d arb=%d defer=%d, want %d",
				i, s.ChanStalls[0], s.ArbConflicts[1], s.NIDeferred[0], want)
		}
	}
	// Reconciliation: interval sums rebuild the cumulative totals.
	if got := b.TotalFlits(); got != 100+0+12 {
		t.Fatalf("TotalFlits %d, want 112", got)
	}
	var hops int64
	for _, s := range b.Snapshots {
		hops += s.FlitHops
	}
	if hops != 112 {
		t.Fatalf("summed FlitHops %d, want 112", hops)
	}
}

// TestRecorderReattachResetsEveryBaseline: a network's counters, its
// engine's included, start at zero, so a second attach rebases every
// cumulative series and the second run's first interval is its own
// totals.
func TestRecorderReattachResetsEveryBaseline(t *testing.T) {
	r := NewRecorder(Config{Every: 10})
	labels := []string{"a", "b"}
	fill := func(k int64) func(*Snapshot) {
		return func(s *Snapshot) {
			s.ChanFlits[0], s.ChanStalls[1] = 5*k, 2*k
			s.ArbConflicts[0], s.NIDeferred[0] = 3*k, k
			s.FlitHops = 5 * k
			s.Events, s.FarPosts, s.Migrations = uint64(100*k), uint64(7*k), uint64(4*k)
		}
	}
	r.AttachNetwork(labels, 1, 1)
	r.Sample(10, fill(3))
	r.AttachNetwork(labels, 1, 1)
	r.Sample(10, fill(1))
	snaps := r.Samples()
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	s := snaps[1]
	if s.Run != 1 {
		t.Fatalf("second run index %d, want 1", s.Run)
	}
	want := Snapshot{Run: 1, At: 10}
	want.ChanFlits, want.ChanStalls = []int64{5, 0}, []int64{0, 2}
	want.BufOcc, want.ArbConflicts = []int64{0}, []int64{3}
	want.NISend, want.NIRecv, want.NIDeferred = []int64{0}, []int64{0}, []int64{1}
	want.FlitHops, want.Events, want.FarPosts, want.Migrations = 5, 100, 7, 4
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("second run not rebased on attach:\n got %+v\nwant %+v", s, want)
	}
}

func TestRecorderAttachShapeMismatchPanics(t *testing.T) {
	r := NewRecorder(Config{})
	r.AttachNetwork([]string{"a"}, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched attach did not panic")
		}
	}()
	r.AttachNetwork([]string{"a", "b"}, 1, 1)
}

func TestRecorderRingEvictsOldest(t *testing.T) {
	r := NewRecorder(Config{Every: 1, MaxSamples: 3})
	r.AttachNetwork([]string{"a"}, 1, 1)
	for i := 1; i <= 5; i++ {
		r.Sample(event.Time(i), func(s *Snapshot) {})
	}
	b := r.Bundle("c")
	if b.Dropped != 2 {
		t.Fatalf("dropped %d, want 2", b.Dropped)
	}
	var ats []event.Time
	for _, s := range b.Snapshots {
		ats = append(ats, s.At)
	}
	if !reflect.DeepEqual(ats, []event.Time{3, 4, 5}) {
		t.Fatalf("retained samples at %v, want [3 4 5]", ats)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Bundle{fakeBundle(t, "cell/a", 5), fakeBundle(t, "cell/b", 2)}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("jsonl round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
}

func TestHeatmapRendersBusiestChannels(t *testing.T) {
	b := fakeBundle(t, "cell/a", 8)
	var buf bytes.Buffer
	if err := WriteHeatmap(&buf, b, 2, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cell/a") {
		t.Fatalf("missing cell label:\n%s", out)
	}
	// Channel 0 carries almost all flits, channel 1 none; topN=2 must show
	// the busiest two and omit the idle one.
	if !strings.Contains(out, "s0p0->s1") || !strings.Contains(out, "inj n0") {
		t.Fatalf("busiest channels missing:\n%s", out)
	}
	if strings.Contains(out, "s1p0->s0") {
		t.Fatalf("idle channel rendered despite topN=2:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Fatalf("expected header(2) + 2 channel rows, got %d lines:\n%s", lines, out)
	}
}

func TestHeatmapEmptyBundle(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeatmap(&buf, Bundle{Cell: "empty"}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no samples") {
		t.Fatalf("empty bundle output %q", buf.String())
	}
}

// TestCheckEvery: a cadence up to MaxEvery is accepted (0 selects the
// default); anything longer, up to the largest uint64 a flag or a job
// spec can carry, is refused before it reaches the event clock.
func TestCheckEvery(t *testing.T) {
	for _, every := range []uint64{0, 1, uint64(DefaultEvery), uint64(MaxEvery)} {
		if err := CheckEvery(every); err != nil {
			t.Fatalf("CheckEvery(%d) = %v, want nil", every, err)
		}
	}
	for _, every := range []uint64{uint64(MaxEvery) + 1, 1 << 63, ^uint64(0)} {
		if err := CheckEvery(every); err == nil {
			t.Fatalf("CheckEvery(%d) accepted a cadence past MaxEvery", every)
		}
	}
}
