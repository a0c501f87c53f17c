// Package benchcase holds the perf-trajectory benchmark bodies shared
// between the `go test -bench` harness (bench_test.go wraps them) and the
// JSON emitter (`cmd/mcastsim -emit-bench` runs them via testing.Benchmark
// and writes BENCH_PR3.json). Keeping one body per benchmark guarantees
// the CI artifact and the interactive numbers measure the same workload.
package benchcase

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mcastsim/internal/bitset"
	"mcastsim/internal/destset"
	"mcastsim/internal/event"
	"mcastsim/internal/experiment"
	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// drainLargeSpec pins the DrainLarge workload: a 64-switch, 512-host
// irregular network draining a mixed unicast/multicast burst. The message
// mix (half unicast, a quarter tree worms, a quarter path worms) exercises
// all three worm-advancement paths plus the NI/DMA pipeline.
const (
	drainSwitches = 64
	drainPorts    = 16
	drainNodes    = 512
	drainSeed     = 0xd2a1_4a26e
	drainMsgs     = 96
	drainDegree   = 16
	drainFlits    = 256
)

// drainLargeWorkload is the precomputed part of DrainLarge: one routed
// topology and a deterministic message schedule.
type drainLargeWorkload struct {
	rt    *updown.Routing
	plans []*sim.Plan
}

func buildDrainLarge() (*drainLargeWorkload, error) {
	cfg := topology.Config{
		Switches:            drainSwitches,
		PortsPerSwitch:      drainPorts,
		Nodes:               drainNodes,
		ExtraLinksPerSwitch: -1,
	}
	topo, err := topology.Generate(cfg, rng.New(drainSeed))
	if err != nil {
		return nil, err
	}
	rt, err := updown.New(topo)
	if err != nil {
		return nil, err
	}
	w := &drainLargeWorkload{rt: rt}
	r := rng.New(rng.Mix(drainSeed, 0xbe7c))
	tree := treeworm.New()
	path := pathworm.New()
	p := sim.DefaultParams()
	for i := 0; i < drainMsgs; i++ {
		var sch mcast.Scheme
		degree := drainDegree
		switch {
		case i%2 == 0:
			degree = 1 // unicast half of the mix
			sch = nil
		case i%4 == 1:
			sch = tree
		default:
			sch = path
		}
		picks := r.Sample(drainNodes, degree+1)
		src := topology.NodeID(picks[0])
		dests := make([]topology.NodeID, degree)
		for j, v := range picks[1:] {
			dests[j] = topology.NodeID(v)
		}
		var plan *sim.Plan
		if sch == nil {
			specs := make([]sim.WormSpec, len(dests))
			for j, d := range dests {
				specs[j] = sim.WormSpec{Kind: sim.WormUnicast, Dest: d}
			}
			plan = &sim.Plan{Source: src, Dests: dests,
				HostSends: map[topology.NodeID][]sim.WormSpec{src: specs}}
		} else {
			plan, err = sch.Plan(rt, p, src, dests, drainFlits)
			if err != nil {
				return nil, fmt.Errorf("benchcase: plan %d (%s): %w", i, sch.Name(), err)
			}
		}
		w.plans = append(w.plans, plan)
	}
	return w, nil
}

// runDrainLarge injects the burst (messages staggered 50 cycles apart)
// and drains the network, returning the event count.
func (w *drainLargeWorkload) run(seed uint64) (uint64, error) {
	n, err := sim.New(w.rt, sim.DefaultParams(), seed)
	if err != nil {
		return 0, err
	}
	for i, plan := range w.plans {
		at := n.Now() + event.Time(50*i)
		if _, err := n.Send(plan, drainFlits, at, nil); err != nil {
			return 0, fmt.Errorf("benchcase: send %d: %w", i, err)
		}
	}
	if err := n.Drain(0); err != nil {
		return 0, err
	}
	return n.EventsProcessed(), nil
}

// DrainLarge is the large-topology drain benchmark: 64 switches, 512
// hosts, a mixed unicast/tree/path burst driven to completion. It reports
// events/sec (the scheduler-core throughput the PR 3 refactor targets)
// alongside the standard ns/op and allocs/op.
func DrainLarge(b *testing.B) {
	w, err := buildDrainLarge()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		ev, err := w.run(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		events += ev
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// treeStormSpec pins the TreeStorm workload: a switch-rich network (768
// switches, only 256 nodes) where every message is a high-degree tree
// worm aimed at one of a handful of shared destination groups. The shape
// is deliberately routing-bound: climbPorts runs a reverse BFS over all
// 768 switches for every up-phase decision, short messages (16 payload
// flits split into two 8-flit packets) keep flit streaming cheap, and the
// second packet of each message plus the shared groups re-present
// identical (switch, phase, set) decisions — the regime the PR 4 route
// cache targets.
const (
	treeSwitches = 768
	treePorts    = 8
	treeNodes    = 256
	treeSeed     = 0x7ee5_70a3
	treeGroups   = 6
	treeDegree   = 64
	treeMsgs     = 48
	treeFlits    = 16
	treePktFlits = 8
)

// treeStormWorkload is the precomputed part of TreeStorm: one routed
// topology, tuned params, and a deterministic tree-worm schedule.
type treeStormWorkload struct {
	rt     *updown.Routing
	params sim.Params
	plans  []*sim.Plan
}

func buildTreeStorm(p sim.Params) (*treeStormWorkload, error) {
	cfg := topology.Config{
		Switches:            treeSwitches,
		PortsPerSwitch:      treePorts,
		Nodes:               treeNodes,
		ExtraLinksPerSwitch: -1,
	}
	topo, err := topology.Generate(cfg, rng.New(treeSeed))
	if err != nil {
		return nil, err
	}
	rt, err := updown.New(topo)
	if err != nil {
		return nil, err
	}
	w := &treeStormWorkload{rt: rt, params: p}
	// Groups draw from nodes [treeMsgs, treeNodes) and message i sources
	// from node i, so a source never appears in its own destination set
	// (Plan.Validate rejects that).
	r := rng.New(rng.Mix(treeSeed, 0x7ee))
	groups := make([][]topology.NodeID, treeGroups)
	for g := range groups {
		picks := r.Sample(treeNodes-treeMsgs, treeDegree)
		dests := make([]topology.NodeID, treeDegree)
		for j, v := range picks {
			dests[j] = topology.NodeID(v + treeMsgs)
		}
		groups[g] = dests
	}
	tree := treeworm.New()
	for i := 0; i < treeMsgs; i++ {
		src := topology.NodeID(i)
		plan, err := tree.Plan(rt, p, src, groups[i%treeGroups], treeFlits)
		if err != nil {
			return nil, fmt.Errorf("benchcase: tree plan %d: %w", i, err)
		}
		w.plans = append(w.plans, plan)
	}
	return w, nil
}

// run injects the tree-worm burst (staggered 20 cycles apart) and drains
// the network, returning the event count.
func (w *treeStormWorkload) run(seed uint64) (uint64, error) {
	n, err := sim.New(w.rt, w.params, seed)
	if err != nil {
		return 0, err
	}
	for i, plan := range w.plans {
		at := n.Now() + event.Time(20*i)
		if _, err := n.Send(plan, treeFlits, at, nil); err != nil {
			return 0, fmt.Errorf("benchcase: tree send %d: %w", i, err)
		}
	}
	if err := n.Drain(0); err != nil {
		return 0, err
	}
	return n.EventsProcessed(), nil
}

// TreeStorm is the tree-routing benchmark added for PR 4: 48 two-packet
// tree worms over 6 shared 64-destination groups on a 768-switch network.
// It reports events/sec like DrainLarge; the PR 4 acceptance target is a
// >= 1.5x events/sec improvement from the epoch-tagged route cache and
// the allocation-free worm lifecycle.
func TreeStorm(b *testing.B) {
	p := sim.DefaultParams()
	p.PacketFlits = treePktFlits
	w, err := buildTreeStorm(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		ev, err := w.run(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		events += ev
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// SweepParallel is the experiment-harness benchmark from PR 2: the full
// Figure 9 sweep at quick scale with one worker per CPU.
func SweepParallel(b *testing.B) {
	cfg := experiment.Quick()
	cfg.Warmup, cfg.Measure, cfg.Drain = 5_000, 25_000, 20_000
	cfg.Loads = []float64{0.1, 0.3}
	cfg.LoadDegrees = []int{8}
	cfg.Workers = runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig9LoadVsR(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// headerEncodeSpec pins the HeaderEncode workload: destination-header
// sizing and encoding for a rack-clustered multicast on the scale
// sweep's large fat-tree (101376 hosts), the per-injection work the
// interval coding adds to the sim hot path. Each op processes one
// 8-rack set under both codings: the flat bit-string append and the
// zero-alloc interval helpers (size + fingerprint + append) the
// simulator and route cache call.
const (
	hdrRacks        = 8
	hdrHostsPerRack = 132
	hdrUniverse     = 101_376
)

// HeaderEncode is the header-encoding benchmark added for the scale
// sweep: flat vs interval destination coding over a 1056-destination
// rack-clustered set in a 101k-host universe. It reports headers/sec
// (one header = one coding of the whole set).
func HeaderEncode(b *testing.B) {
	set := bitset.New(hdrUniverse)
	r := rng.New(0x4ead_e2)
	for _, rack := range r.Sample(hdrUniverse/hdrHostsPerRack, hdrRacks) {
		base := rack * hdrHostsPerRack
		for i := 0; i < hdrHostsPerRack; i++ {
			set.Add(base + i)
		}
	}
	flat := destset.FromBits(destset.Flat, set)
	buf := make([]byte, 0, 1+(hdrUniverse+7)/8)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = flat.AppendEncoded(buf[:0])
		sink += uint64(len(buf))
		sink += uint64(destset.IvalBytesOf(set))
		sink ^= destset.IvalFingerprintOf(set)
		buf = destset.AppendIvalEncoded(buf[:0], set)
		sink += uint64(len(buf))
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("benchcase: header encode produced nothing")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(2*b.N)/s, "headers/sec")
	}
}

// scaleFT caches the scale sweep's L-tier routed fat-tree (1088
// switches, 101376 hosts) for the sparse-representation families. The
// universe is above sim.SparseUniverseThreshold, so RepAuto selects the
// run-coded destination sets — exactly the regime PR 9's hot-path work
// targets. Building it costs seconds, so it is shared across benchmark
// rounds (testing.Benchmark re-enters the body with growing b.N) and
// between SparseStorm and ScaleSim; at ~30 MB resident it is cheap to
// keep.
var scaleFT struct {
	once sync.Once
	rt   *updown.Routing
	err  error
}

func scaleFatTree() (*updown.Routing, error) {
	scaleFT.once.Do(func() {
		t, err := topology.FatTree(topology.FatTreeConfig{
			Pods: 32, EdgePerPod: 24, AggPerPod: 8, CoreUplinksPerAgg: 8, HostsPerEdge: 132,
		})
		if err != nil {
			scaleFT.err = err
			return
		}
		scaleFT.rt, scaleFT.err = updown.New(t)
	})
	return scaleFT.rt, scaleFT.err
}

// rackPlan draws a rack-clustered tree multicast on rt: every host on
// `racks` sampled host-bearing switches, excluding src, planned by the
// switch-based tree scheme.
func rackPlan(rt *updown.Routing, p sim.Params, r *rng.Source, racks int, src topology.NodeID, flits int) (*sim.Plan, error) {
	t := rt.Topo
	nbs := t.NodesBySwitch()
	var hs []int
	for s := 0; s < t.NumSwitches; s++ {
		if len(nbs[s]) > 0 {
			hs = append(hs, s)
		}
	}
	var dests []topology.NodeID
	for _, i := range r.Sample(len(hs), racks) {
		for _, n := range nbs[hs[i]] {
			if n != src {
				dests = append(dests, n)
			}
		}
	}
	return treeworm.New().Plan(rt, p, src, dests, flits)
}

// sparseStormSpec pins the SparseStorm workload: a burst of short
// rack-clustered tree multicasts on the 101k-host fat-tree, cycling over
// a handful of shared destination sets. Above the sparse threshold every
// destination set is run-coded, so the burst drives the PR 9 hot paths —
// pooled run sets, per-branch subset splitting, and the route cache's
// interval-run keys (the shared sets re-present identical (switch, set)
// decisions) — with flit streaming kept cheap by the short payload.
const (
	sparseRacks    = 8
	sparseGroups   = 3
	sparseMsgs     = 12
	sparseFlits    = 16
	sparsePktFlits = 8
	sparseSeed     = 0x5a2e_510
)

// SparseStorm is the sparse-representation planning/branch storm: 12
// two-packet interval-coded tree worms over 3 shared 8-rack destination
// sets (~1050 destinations each) on the 101k-host fat-tree. It reports
// events/sec like the other simulator families; the PR 9 target is that
// run-coded sets keep the per-branch planning path allocation-light at
// a universe 200x larger than TreeStorm's.
func SparseStorm(b *testing.B) {
	rt, err := scaleFatTree()
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.DestCoding = sim.HeaderIval
	p.PacketFlits = sparsePktFlits
	r := rng.New(sparseSeed)
	// Sources sit on the last edge switch's hosts; destination racks that
	// happen to include a source simply skip it (rackPlan excludes src).
	srcBase := topology.NodeID(rt.Topo.NumNodes - sparseMsgs)
	plans := make([]*sim.Plan, sparseGroups)
	for g := range plans {
		plans[g], err = rackPlan(rt, p, r, sparseRacks, srcBase+topology.NodeID(g), sparseFlits)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		n, err := sim.New(rt, p, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m < sparseMsgs; m++ {
			at := n.Now() + event.Time(200*m)
			if _, err := n.Send(plans[m%sparseGroups], sparseFlits, at, nil); err != nil {
				b.Fatal(err)
			}
		}
		if err := n.Drain(0); err != nil {
			b.Fatal(err)
		}
		events += n.EventsProcessed()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// ScaleSim is the scale-tier probe as a benchcase: ONE full-payload
// rack-clustered tree multicast (8 racks, ~1050 destinations, interval
// coding) flit-simulated on the 101k-host fat-tree — the same
// configuration the scale sweep's -sim-l smoke runs at the L and XL
// tiers. Its events/sec and peak-heap
// figures in the bench JSON are the committed trajectory for "does the
// flit simulator still reach datacenter scale".
const (
	scaleSimRacks = 8
	scaleSimFlits = 128
	scaleSimSeed  = 0x5ca1e_b
)

func ScaleSim(b *testing.B) {
	rt, err := scaleFatTree()
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams()
	p.DestCoding = sim.HeaderIval
	plan, err := rackPlan(rt, p, rng.New(scaleSimSeed), scaleSimRacks, 0, scaleSimFlits)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		n, err := sim.New(rt, p, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.RunSingle(plan, scaleSimFlits); err != nil {
			b.Fatal(err)
		}
		events += n.EventsProcessed()
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// TopologyGen is the large-topology construction benchmark: build the
// scale sweep's L-tier fat-tree (1088 switches, 101376 hosts) and its
// up*/down* routing state per op. It guards the O(N+S) scale paths —
// incremental free-port generation, NodesBySwitch indexing, and the
// table-free updown construction — against quadratic regressions.
func TopologyGen(b *testing.B) {
	cfg := topology.FatTreeConfig{
		Pods: 32, EdgePerPod: 24, AggPerPod: 8, CoreUplinksPerAgg: 8, HostsPerEdge: 132,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var switches uint64
	for i := 0; i < b.N; i++ {
		t, err := topology.FatTree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := updown.New(t); err != nil {
			b.Fatal(err)
		}
		switches += uint64(t.NumSwitches)
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(switches)/s, "switches/sec")
	}
}
