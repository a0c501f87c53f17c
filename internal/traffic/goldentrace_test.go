package traffic_test

// Golden-trace determinism suite for the PR 3 scheduler refactor.
//
// The hard constraint on the typed-event calendar-queue core is that it
// preserves the exact event order of the closure/binary-heap engine:
// same-cycle FIFO, cross-cycle time order, identical arbitration RNG
// consumption. These tests pin that down at the finest observable grain —
// the full TraceEvent stream of representative fig6 (isolated multicast)
// and fig9 (open-loop load) cells, hashed byte-for-byte — plus the final
// Stats counters and event counts.
//
// testdata/golden_traces.json was recorded on the pre-refactor engine
// (closure entries in a binary min-heap). Any divergence — one event
// reordered, one extra RNG draw — changes the hash. Regenerate only when
// a simulation-semantics change is intended: go test -run Golden -update.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/traffic"
	"mcastsim/internal/updown"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace/table files")

// traceHasher folds a TraceEvent stream into a canonical SHA-256: every
// field in fixed-width little-endian, so two streams share a hash iff
// they are byte-for-byte identical.
type traceHasher struct {
	sum    interface{ Write(p []byte) (int, error) }
	events uint64
	buf    [57]byte
}

func newTraceHasher() (*traceHasher, func() string) {
	h := sha256.New()
	th := &traceHasher{sum: h}
	return th, func() string { return hex.EncodeToString(h.Sum(nil)) }
}

func (th *traceHasher) observe(ev sim.TraceEvent) {
	b := th.buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(ev.At))
	b[8] = byte(ev.Kind)
	binary.LittleEndian.PutUint64(b[9:], uint64(ev.Worm))
	binary.LittleEndian.PutUint64(b[17:], uint64(ev.Msg))
	binary.LittleEndian.PutUint64(b[25:], uint64(ev.Pkt))
	binary.LittleEndian.PutUint64(b[33:], uint64(ev.Switch))
	binary.LittleEndian.PutUint64(b[41:], uint64(ev.Port))
	binary.LittleEndian.PutUint64(b[49:], uint64(ev.Node))
	th.sum.Write(b)
	th.events++
}

// goldenCell is one recorded determinism cell.
type goldenCell struct {
	Name   string    `json:"name"`
	Hash   string    `json:"hash"`
	Events uint64    `json:"events"`
	Stats  sim.Stats `json:"stats"`
}

const goldenPath = "testdata/golden_traces.json"

// goldenTopology builds the routed topology every golden cell runs on:
// the paper's default system, generation seed 1998 (the experiment
// harness's base seed).
func goldenTopology(t testing.TB) *updown.Routing {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(1998))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func goldenSchemes() []mcast.Scheme {
	return []mcast.Scheme{kbinomial.New(), treeworm.New(), pathworm.New()}
}

// runFig6Cell replays one fig6-style isolated-multicast cell (the loop of
// traffic.RunSingle, with a tracer installed) under params p and returns
// its trace hash, event count and stats.
func runFig6Cell(t testing.TB, rt *updown.Routing, sch mcast.Scheme, p sim.Params, name string) goldenCell {
	t.Helper()
	const probes, degree, flits, seed = 4, 16, 128, 7
	src := rng.New(seed)
	th, sum := newTraceHasher()
	var stats sim.Stats
	var events uint64
	for i := 0; i < probes; i++ {
		picks := src.Sample(rt.Topo.NumNodes, degree+1)
		from := topology.NodeID(picks[0])
		dests := make([]topology.NodeID, degree)
		for j, v := range picks[1:] {
			dests[j] = topology.NodeID(v)
		}
		plan, err := sch.Plan(rt, p, from, dests, flits)
		if err != nil {
			t.Fatal(err)
		}
		n, err := sim.New(rt, p, rng.Mix(seed, 0xa2b17, uint64(i)), sim.WithTrace(th.observe))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.RunSingle(plan, flits); err != nil {
			t.Fatalf("%s probe %d: %v", sch.Name(), i, err)
		}
		s := n.Stats()
		stats = addStats(stats, s)
		events += n.EventsProcessed()
	}
	return goldenCell{
		Name:   name,
		Hash:   sum(),
		Events: events,
		Stats:  stats,
	}
}

// runFig9Cell runs one fig9-style open-loop load cell through the real
// traffic.RunLoadOn on a traced network.
func runFig9Cell(t testing.TB, rt *updown.Routing, sch mcast.Scheme) goldenCell {
	t.Helper()
	p := sim.DefaultParams()
	cfg := traffic.LoadConfig{
		Workload: traffic.Workload{Scheme: sch, Params: p, Degree: 8, MsgFlits: 128,
			Seed: rng.Mix(1998, 0x10adce11, 0)},
		LoadSpec: traffic.LoadSpec{EffectiveLoad: 0.3,
			Warmup: 2_000, Measure: 10_000, Drain: 10_000},
	}
	th, sum := newTraceHasher()
	n, err := sim.New(rt, p, cfg.Seed, sim.WithTrace(th.observe))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traffic.RunLoadOn(n, rt, cfg); err != nil {
		t.Fatalf("%s load cell: %v", sch.Name(), err)
	}
	return goldenCell{
		Name:   "fig9/load=0.3/" + sch.Name(),
		Hash:   sum(),
		Events: n.EventsProcessed(),
		Stats:  n.Stats(),
	}
}

func addStats(a, b sim.Stats) sim.Stats {
	a.WormsCreated += b.WormsCreated
	a.PacketsInjected += b.PacketsInjected
	a.FlitHops += b.FlitHops
	a.FlitsDelivered += b.FlitsDelivered
	a.PacketsAtNI += b.PacketsAtNI
	a.PacketsToHost += b.PacketsToHost
	a.MessagesSent += b.MessagesSent
	a.MessagesDone += b.MessagesDone
	a.FlitsDropped += b.FlitsDropped
	a.WormsKilled += b.WormsKilled
	a.DestsFailed += b.DestsFailed
	a.Reconfigs += b.Reconfigs
	return a
}

// collectCells runs every golden cell.
func collectCells(t testing.TB) []goldenCell {
	t.Helper()
	rt := goldenTopology(t)
	var cells []goldenCell
	for _, r := range []float64{1, 4} {
		for _, sch := range goldenSchemes() {
			name := fmt.Sprintf("fig6/R=%.1f/%s", r, sch.Name())
			cells = append(cells, runFig6Cell(t, rt, sch, sim.DefaultParams().WithR(r), name))
		}
	}
	for _, sch := range goldenSchemes() {
		cells = append(cells, runFig9Cell(t, rt, sch))
	}
	// The tree worm's early-branch ablation and its interval-coded header
	// take paths the cells above do not.
	early := sim.DefaultParams().WithR(1)
	early.EarlyTreeBranch = true
	cells = append(cells, runFig6Cell(t, rt, treeworm.New(), early, "fig6/R=1.0/sw-tree/early-branch"))
	sparse := sim.DefaultParams().WithR(1)
	sparse.DestCoding = sim.HeaderIval
	cells = append(cells, runFig6Cell(t, rt, treeworm.New(), sparse, "fig6/R=1.0/sw-tree/sparse-ival"))
	return cells
}

// TestGoldenTraces compares the current engine's full TraceEvent streams
// against the hashes recorded on the pre-refactor closure/heap engine.
func TestGoldenTraces(t *testing.T) {
	got := collectCells(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden cells", len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cell count %d, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			t.Fatalf("cell %d name %q, golden %q", i, got[i].Name, want[i].Name)
		}
		if got[i].Events != want[i].Events {
			t.Errorf("%s: %d events, golden %d", got[i].Name, got[i].Events, want[i].Events)
		}
		if got[i].Stats != want[i].Stats {
			t.Errorf("%s: stats %+v, golden %+v", got[i].Name, got[i].Stats, want[i].Stats)
		}
		if got[i].Hash != want[i].Hash {
			t.Errorf("%s: trace stream diverged from pre-refactor engine (hash %s, golden %s)",
				got[i].Name, got[i].Hash, want[i].Hash)
		}
	}
}
