package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/memwatch"
	"mcastsim/internal/metrics"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Scale-sweep salts (joined by case/probe indices at the call sites).
const (
	saltScale    uint64 = 0x5ca1e5 // rack-clustered (source, destination) draws
	saltScaleSim uint64 = 0x5ca151 // per-probe simulation arbitration streams
)

// scaleCase is one (topology class, size tier) grid point.
type scaleCase struct {
	class string // "fattree", "dragonfly", "irregular"
	tier  string // "S", "M", "L"
	// simulate: run the flit-level simulator for latency/throughput.
	// The L tier is plan+encode only — the paper's comparison question
	// (where does multicast support belong?) is answered there by header
	// cost and planning cost, which is what changes with scale.
	simulate bool
	racks    int // destination racks (edge switches) per multicast probe
	build    func(seed uint64) (*topology.Topology, error)
}

// scaleCases returns the class x tier grid. Sizes per tier:
//
//	S:  tens of switches, tens of hosts (paper scale; fully simulated)
//	M:  ~64-72 switches, ~1k hosts (fully simulated)
//	L:  >=1024 switches, >=100k hosts (plan+encode only)
//	XL: >=10k switches, >=1M hosts (plan+encode only; -tiers XL opt-in)
//
// Hosts are contiguous per edge switch in every class, so the
// rack-clustered destination draws map to few runs under interval coding.
//
// The XL tier exists to answer the PR 9 question — does the sparse
// destination representation let the flit simulator reach 10k switches /
// 1M hosts in commodity RAM? Each XL cell builds a 1M-host topology and
// network (a simulated XL probe peaks at 0.3-0.83 GB of heap), so the
// tier is excluded from the default grid (Config.Tiers empty selects S,
// M, L) and opted into with -tiers; -sim-l then flit-simulates one probe
// per XL cell exactly as it does for L. XL cases are APPENDED to the
// grid: existing cases keep their original indices, which the cell seeds
// are pure functions of, so adding the tier cannot move any S/M/L number.
func scaleCases() []scaleCase {
	ft := func(c topology.FatTreeConfig) func(uint64) (*topology.Topology, error) {
		return func(uint64) (*topology.Topology, error) { return topology.FatTree(c) }
	}
	df := func(c topology.DragonflyConfig) func(uint64) (*topology.Topology, error) {
		return func(uint64) (*topology.Topology, error) { return topology.Dragonfly(c) }
	}
	ir := func(c topology.ScaledIrregularConfig) func(uint64) (*topology.Topology, error) {
		return func(seed uint64) (*topology.Topology, error) { return topology.ScaledIrregular(c, seed) }
	}
	return []scaleCase{
		{"fattree", "S", true, 2, ft(topology.FatTreeConfig{
			Pods: 2, EdgePerPod: 2, AggPerPod: 2, CoreUplinksPerAgg: 1, HostsPerEdge: 8})},
		{"fattree", "M", true, 4, ft(topology.FatTreeConfig{
			Pods: 4, EdgePerPod: 8, AggPerPod: 4, CoreUplinksPerAgg: 4, HostsPerEdge: 32})},
		{"fattree", "L", false, 8, ft(topology.FatTreeConfig{
			Pods: 32, EdgePerPod: 24, AggPerPod: 8, CoreUplinksPerAgg: 8, HostsPerEdge: 132})},
		{"dragonfly", "S", true, 2, df(topology.DragonflyConfig{
			Groups: 6, RoutersPerGroup: 3, GlobalPerRouter: 2, HostsPerRouter: 4})},
		{"dragonfly", "M", true, 4, df(topology.DragonflyConfig{
			Groups: 12, RoutersPerGroup: 6, GlobalPerRouter: 2, HostsPerRouter: 12})},
		{"dragonfly", "L", false, 8, df(topology.DragonflyConfig{
			Groups: 33, RoutersPerGroup: 33, GlobalPerRouter: 1, HostsPerRouter: 93})},
		{"irregular", "S", true, 2, ir(topology.ScaledIrregularConfig{
			Switches: 12, HostsPerSwitch: 4, ExtraLinksPerSwitch: -1})},
		{"irregular", "M", true, 4, ir(topology.ScaledIrregularConfig{
			Switches: 64, HostsPerSwitch: 16, ExtraLinksPerSwitch: -1})},
		{"irregular", "L", false, 8, ir(topology.ScaledIrregularConfig{
			Switches: 1024, HostsPerSwitch: 99, ExtraLinksPerSwitch: -1})},
		// XL: appended after the original grid (see the doc comment).
		{"fattree", "XL", false, 8, ft(topology.FatTreeConfig{
			Pods: 72, EdgePerPod: 128, AggPerPod: 14, CoreUplinksPerAgg: 10, HostsPerEdge: 112})},
		{"dragonfly", "XL", false, 8, df(topology.DragonflyConfig{
			Groups: 321, RoutersPerGroup: 32, GlobalPerRouter: 10, HostsPerRouter: 98})},
		{"irregular", "XL", false, 8, ir(topology.ScaledIrregularConfig{
			Switches: 10240, HostsPerSwitch: 98, ExtraLinksPerSwitch: -1})},
	}
}

// tierSelected reports whether cfg's tier filter includes the named
// tier. An empty filter selects every tier except the opt-in XL.
func (cfg Config) tierSelected(tier string) bool {
	if len(cfg.Tiers) == 0 {
		return tier != "XL"
	}
	for _, t := range cfg.Tiers {
		if strings.EqualFold(strings.TrimSpace(t), tier) {
			return true
		}
	}
	return false
}

// scaleCombo is one (scheme, destination coding) curve of the sweep. The
// coding only changes tree-worm headers, so it is swept for the
// switch-based tree scheme alone.
type scaleCombo struct {
	label  string
	scheme mcast.Scheme
	coding sim.DestCoding
}

func scaleCombos() []scaleCombo {
	return []scaleCombo{
		{"ni-kbinomial", kbinomial.New(), sim.HeaderFlat},
		{"sw-tree flat", treeworm.New(), sim.HeaderFlat},
		{"sw-tree ival", treeworm.New(), sim.HeaderIval},
		{"sw-path", pathworm.New(), sim.HeaderFlat},
	}
}

// scaleProbes bounds the per-cell probe count: every probe at the M and
// L tiers is a hundreds-to-thousands-destination multicast, so
// cfg.Probes (sized for degree-16 probes) would be heavy oversampling.
func scaleProbes(cfg Config) int {
	if cfg.Probes > 4 {
		return 4
	}
	return cfg.Probes
}

// rackSet draws one rack-clustered multicast: a random source host plus
// every host on `racks` distinct randomly chosen switches (the "deliver
// to these racks" pattern of datacenter multicast — and the workload
// where run-length destination coding should win). The source is
// excluded from the destinations; a rack draw that yields no
// destinations retries with the next draw.
func rackSet(r *rng.Source, t *topology.Topology, nodesBySwitch [][]topology.NodeID, hostSwitches []int, racks int) (topology.NodeID, []topology.NodeID) {
	src := topology.NodeID(r.Intn(t.NumNodes))
	for {
		var dests []topology.NodeID
		for _, i := range r.Sample(len(hostSwitches), racks) {
			for _, n := range nodesBySwitch[hostSwitches[i]] {
				if n != src {
					dests = append(dests, n)
				}
			}
		}
		if len(dests) > 0 {
			return src, dests
		}
	}
}

// scaleCellResult is one (case, combo) cell's aggregate over its probes.
type scaleCellResult struct {
	// Fields are exported so the checkpoint journal's gob codec can
	// round-trip them (gob silently drops unexported fields).
	HeaderBytes float64 // mean encoded header bytes per multicast
	PlanMS      float64 // mean plan+size wall time per multicast (NOT deterministic)
	Latency     float64 // mean single-multicast latency (NaN when not simulated)
	Throughput  float64 // mean delivered payload bytes/cycle (NaN when not simulated)
	Dests       float64 // mean destination count (table note)
	// Simulated-probe capacity figures (NaN when not simulated). Both are
	// wall-clock measurements and live only in the NOT-deterministic
	// tables: eventsPerSec is events processed over sim wall time;
	// peakHeapMB is the process-wide HeapAlloc high-water mark sampled
	// while the cell's probes ran (coarse when cells run in parallel —
	// concurrent cells share one heap — but exactly the capacity number
	// the XL acceptance bound is about).
	EventsPerSec float64
	PeakHeapMB   float64
}

// ScaleSweep re-asks the paper's NI-vs-switch question at datacenter
// scale: topology class (fat-tree / dragonfly / scaled irregular) x size
// tier (S/M/L, plus XL via -tiers) x scheme x destination coding. Header
// bytes and planning cost are measured at every tier (they are what the
// paper's scaling argument predicts will break); flit-level latency and
// delivered throughput are simulated at the S and M tiers. Destination sets are
// rack-clustered (whole edge switches), the regime where the
// interval-coded tree header stays small while the flat bit string grows
// with the host count.
//
// Determinism: every cell seed is a pure function of (case, probe)
// indices and cells share the paired draws across schemes and codings,
// so all tables except the wall-clock one are byte-identical for any
// -workers. The wall-clock table measures real elapsed time and is
// explicitly excluded from that guarantee.
func ScaleSweep(cfg Config) ([]*metrics.Table, error) {
	cases := scaleCases()
	combos := scaleCombos()
	probes := scaleProbes(cfg)

	sel := make([]bool, len(cases))
	anySel := false
	for ci, sc := range cases {
		sel[ci] = cfg.tierSelected(sc.tier)
		anySel = anySel || sel[ci]
	}
	if !anySel {
		return nil, fmt.Errorf("experiment: scalesweep: tier filter %v selects no grid cases", cfg.Tiers)
	}

	// One grid case is resident at a time: an XL topology holds a million
	// hosts, so routing the whole grid up front (as the sweep did when L
	// was the largest tier) would stack three of them on the heap at
	// once. Combos within a case still fan out across the worker pool —
	// routing state is read-only during planning and simulation — and
	// every cell seed stays a pure function of the case's original grid
	// index, so the restructure cannot change a table.
	cells := make([]scaleCellResult, len(cases)*len(combos))
	numNodes := make([]int, len(cases))
	for ci := range cases {
		if !sel[ci] {
			continue
		}
		sc := cases[ci]
		t, err := sc.build(rng.Mix(cfg.Seed, saltFamily, uint64(ci)))
		if err != nil {
			return nil, fmt.Errorf("experiment: scalesweep %s/%s: %w", sc.class, sc.tier, err)
		}
		rt, err := updown.New(t)
		if err != nil {
			return nil, fmt.Errorf("experiment: scalesweep %s/%s: %w", sc.class, sc.tier, err)
		}
		nbs := t.NodesBySwitch()
		var hs []int
		for s := 0; s < t.NumSwitches; s++ {
			if len(nbs[s]) > 0 {
				hs = append(hs, s)
			}
		}
		numNodes[ci] = t.NumNodes
		res, err := runCells(cfg, len(combos), func(mi int, _ *cellCtx) (scaleCellResult, error) {
			cb := combos[mi]
			p := cfg.Params
			p.DestCoding = cb.coding
			res := scaleCellResult{
				Latency: math.NaN(), Throughput: math.NaN(),
				EventsPerSec: math.NaN(), PeakHeapMB: math.NaN(),
			}
			// Simulated probes per cell: every probe at tiers that simulate
			// by default; with -sim-l, ONE probe at the L and XL tiers (the
			// smoke that proves the engine event-simulates 100k-1M+
			// hosts without turning the sweep into an hours-long run).
			simProbes := 0
			if sc.simulate {
				simProbes = probes
			} else if cfg.SimulateL {
				simProbes = 1
			}
			var latSum, tputSum float64
			var hdrSum, destSum, planNS int64
			var simNS int64
			var simEvents uint64
			var peakHeap uint64
			for probe := 0; probe < probes; probe++ {
				// Draw seed depends on (case, probe) only: every scheme and
				// coding plans the identical rack-clustered multicast.
				r := rng.New(rng.Mix(cfg.Seed, saltScale, uint64(ci), uint64(probe)))
				src, dests := rackSet(r, t, nbs, hs, sc.racks)
				start := time.Now()
				plan, err := cb.scheme.Plan(rt, p, src, dests, cfg.MsgFlits)
				if err != nil {
					return res, fmt.Errorf("experiment: scalesweep %s/%s %s probe %d: %w",
						sc.class, sc.tier, cb.label, probe, err)
				}
				hdr := sim.PlanHeaderFlits(t, cb.coding, plan)
				planNS += time.Since(start).Nanoseconds()
				hdrSum += int64(hdr)
				destSum += int64(len(dests))
				if probe >= simProbes {
					continue
				}
				mw := memwatch.Start()
				simStart := time.Now()
				n, err := sim.New(rt, p, rng.Mix(cfg.Seed, saltScaleSim, uint64(ci), uint64(probe)))
				if err != nil {
					mw.Stop()
					return res, err
				}
				m, err := n.RunSingle(plan, cfg.MsgFlits)
				if err != nil {
					mw.Stop()
					return res, fmt.Errorf("experiment: scalesweep %s/%s %s probe %d: %w",
						sc.class, sc.tier, cb.label, probe, err)
				}
				if err := n.CheckConservation(); err != nil {
					mw.Stop()
					return res, fmt.Errorf("experiment: scalesweep %s/%s %s probe %d: %w",
						sc.class, sc.tier, cb.label, probe, err)
				}
				simNS += time.Since(simStart).Nanoseconds()
				simEvents += n.EventsProcessed()
				if pk := mw.Stop(); pk > peakHeap {
					peakHeap = pk
				}
				lat := float64(m.Latency())
				latSum += lat
				tputSum += float64(len(dests)*cfg.MsgFlits) / lat
			}
			res.HeaderBytes = float64(hdrSum) / float64(probes)
			res.PlanMS = float64(planNS) / float64(probes) / 1e6
			res.Dests = float64(destSum) / float64(probes)
			if simProbes > 0 {
				res.Latency = latSum / float64(simProbes)
				res.Throughput = tputSum / float64(simProbes)
				if simNS > 0 {
					res.EventsPerSec = float64(simEvents) / (float64(simNS) / 1e9)
				}
				res.PeakHeapMB = float64(peakHeap) / (1 << 20)
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		copy(cells[ci*len(combos):], res)
	}

	header := &metrics.Table{
		Title:  "Scale sweep: encoded header bytes per multicast (one packet, all worms)",
		XLabel: "hosts",
		YLabel: "mean header bytes",
	}
	latency := &metrics.Table{
		Title:  "Scale sweep: single rack-clustered multicast latency",
		XLabel: "hosts",
		YLabel: "mean latency (cycles)",
	}
	tput := &metrics.Table{
		Title:  "Scale sweep: delivered payload throughput per multicast",
		XLabel: "hosts",
		YLabel: "mean delivered payload (bytes/cycle)",
	}
	wall := &metrics.Table{
		Title:  "Scale sweep: plan + header-sizing wall time (NOT deterministic; excluded from golden comparisons)",
		XLabel: "hosts",
		YLabel: "mean wall time per multicast (ms)",
	}
	rate := &metrics.Table{
		Title:  "Scale sweep: simulated event rate (NOT deterministic; excluded from golden comparisons)",
		XLabel: "hosts",
		YLabel: "events/sec over simulated probes (wall)",
	}
	heap := &metrics.Table{
		Title:  "Scale sweep: peak heap during simulated probes (NOT deterministic; excluded from golden comparisons)",
		XLabel: "hosts",
		YLabel: "peak HeapAlloc (MiB)",
	}

	cellAt := func(ci, mi int) scaleCellResult { return cells[ci*len(combos)+mi] }
	for mi, cb := range combos {
		for _, class := range []string{"fattree", "dragonfly", "irregular"} {
			label := class + " " + cb.label
			hSer := metrics.Series{Label: label}
			lSer := metrics.Series{Label: label}
			tSer := metrics.Series{Label: label}
			wSer := metrics.Series{Label: label}
			rSer := metrics.Series{Label: label}
			pSer := metrics.Series{Label: label}
			for ci := range cases {
				if cases[ci].class != class || !sel[ci] {
					continue
				}
				r := cellAt(ci, mi)
				x := float64(numNodes[ci])
				note := fmt.Sprintf("%s, %.0f dests", cases[ci].tier, r.Dests)
				simNote := note
				if !cases[ci].simulate {
					if cfg.SimulateL {
						simNote = note + ", 1 simulated probe (-sim-l)"
					} else {
						simNote = note + ", plan+encode only"
					}
				}
				hSer.X = append(hSer.X, x)
				hSer.Y = append(hSer.Y, r.HeaderBytes)
				hSer.Note = append(hSer.Note, note)
				lSer.X = append(lSer.X, x)
				lSer.Y = append(lSer.Y, r.Latency)
				lSer.Note = append(lSer.Note, simNote)
				tSer.X = append(tSer.X, x)
				tSer.Y = append(tSer.Y, r.Throughput)
				tSer.Note = append(tSer.Note, simNote)
				wSer.X = append(wSer.X, x)
				wSer.Y = append(wSer.Y, r.PlanMS)
				wSer.Note = append(wSer.Note, note)
				rSer.X = append(rSer.X, x)
				rSer.Y = append(rSer.Y, r.EventsPerSec)
				rSer.Note = append(rSer.Note, simNote)
				pSer.X = append(pSer.X, x)
				pSer.Y = append(pSer.Y, r.PeakHeapMB)
				pSer.Note = append(pSer.Note, simNote)
			}
			header.Series = append(header.Series, hSer)
			latency.Series = append(latency.Series, lSer)
			tput.Series = append(tput.Series, tSer)
			wall.Series = append(wall.Series, wSer)
			rate.Series = append(rate.Series, rSer)
			heap.Series = append(heap.Series, pSer)
		}
	}
	return []*metrics.Table{header, latency, tput, wall, rate, heap}, nil
}
