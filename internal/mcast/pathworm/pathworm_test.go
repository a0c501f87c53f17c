package pathworm

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"

	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

func routedCfg(t *testing.T, cfg topology.Config, seed uint64) *updown.Routing {
	t.Helper()
	topo, err := topology.Generate(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func randomSrcDests(r *rng.Source, n, m int) (topology.NodeID, []topology.NodeID) {
	picks := r.Sample(n, m+1)
	src := topology.NodeID(picks[0])
	dests := make([]topology.NodeID, m)
	for i, v := range picks[1:] {
		dests[i] = topology.NodeID(v)
	}
	return src, dests
}

// checkWormLegality verifies the structural legality the simulator will
// enforce at runtime: the stop chain is one contiguous legal up*/down*
// path (each continuation port physically connects consecutive stops and
// never turns up after a down move).
func checkWormLegality(t *testing.T, rt *updown.Routing, w sim.WormSpec) {
	t.Helper()
	phase := updown.PhaseUp
	for i, seg := range w.Path {
		for _, d := range seg.Drops {
			if rt.Topo.NodeSwitch[d] != seg.Switch {
				t.Fatalf("segment %d: drop %d not attached to stop switch %d", i, d, seg.Switch)
			}
		}
		if seg.NextPort == -1 {
			if i != len(w.Path)-1 {
				t.Fatalf("segment %d ends worm early", i)
			}
			continue
		}
		dir := rt.Dirs[seg.Switch][seg.NextPort]
		if dir == updown.DirNone {
			t.Fatalf("segment %d: continuation through non-switch port", i)
		}
		if dir == updown.DirUp && phase == updown.PhaseDown {
			t.Fatalf("segment %d: up turn after down", i)
		}
		if dir == updown.DirDown {
			phase = updown.PhaseDown
		}
		peer := rt.Topo.Conn[seg.Switch][seg.NextPort].Switch
		if peer != w.Path[i+1].Switch {
			t.Fatalf("segment %d: continuation port reaches switch %d, header says %d", i, peer, w.Path[i+1].Switch)
		}
	}
}

func coverAll(t *testing.T, rt *updown.Routing, s Scheme, src topology.NodeID, dests []topology.NodeID) Result {
	t.Helper()
	res, err := s.Cover(rt, src, dests)
	if err != nil {
		t.Fatal(err)
	}
	got := map[topology.NodeID]int{}
	for _, specs := range res.Sends {
		for _, w := range specs {
			checkWormLegality(t, rt, w)
			for _, seg := range w.Path {
				for _, d := range seg.Drops {
					got[d]++
				}
			}
		}
	}
	for _, d := range dests {
		if got[d] != 1 {
			t.Fatalf("dest %d covered %d times", d, got[d])
		}
	}
	if len(got) != len(dests) {
		t.Fatalf("extra deliveries: %d vs %d", len(got), len(dests))
	}
	return res
}

func TestWormsCoverEveryDestExactlyOnce(t *testing.T) {
	cfgs := []topology.Config{
		{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1},
		{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: 0},
	}
	for ci, cfg := range cfgs {
		rt := routedCfg(t, cfg, uint64(ci+1))
		r := rng.New(uint64(ci) + 77)
		for trial := 0; trial < 20; trial++ {
			src, dests := randomSrcDests(r, cfg.Nodes, 1+r.Intn(cfg.Nodes-2))
			coverAll(t, rt, New(), src, dests)
		}
	}
}

func TestWormPathsAreShortest(t *testing.T) {
	// Every worm's stop chain must be exactly a shortest legal path from
	// its sender's switch to its terminal.
	rt := routedCfg(t, topology.DefaultConfig(), 5)
	r := rng.New(55)
	for trial := 0; trial < 15; trial++ {
		src, dests := randomSrcDests(r, 32, 16)
		res, err := New().Cover(rt, src, dests)
		if err != nil {
			t.Fatal(err)
		}
		for sender, specs := range res.Sends {
			from := rt.Topo.NodeSwitch[sender]
			for _, w := range specs {
				first := w.Path[0].Switch
				last := w.Path[len(w.Path)-1].Switch
				if first != from {
					t.Fatalf("worm from %d does not start at its sender's switch", sender)
				}
				if got, want := len(w.Path)-1, rt.DistUp(from, last); got != want {
					t.Fatalf("worm %d->%d has %d hops, shortest legal is %d", from, last, got, want)
				}
			}
		}
	}
}

func TestWormCountGrowsWithSwitches(t *testing.T) {
	// The paper's Figure 7 driver: fewer destinations per switch => more
	// worms.
	avgWorms := func(cfg topology.Config, seed uint64) float64 {
		total, count := 0, 0
		for ti := uint64(0); ti < 5; ti++ {
			rt := routedCfg(t, cfg, seed+ti)
			r := rng.New(seed*100 + ti)
			for trial := 0; trial < 10; trial++ {
				src, dests := randomSrcDests(r, cfg.Nodes, 16)
				total += New().Worms(rt, src, dests)
				count++
			}
		}
		return float64(total) / float64(count)
	}
	few := avgWorms(topology.Config{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}, 1)
	many := avgWorms(topology.Config{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}, 2)
	if many <= few {
		t.Fatalf("worm count did not grow with switches: 8sw=%.2f 32sw=%.2f", few, many)
	}
}

func TestSerialScheduleAllFromSource(t *testing.T) {
	rt := routedCfg(t, topology.Config{Switches: 16, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}, 3)
	r := rng.New(33)
	src, dests := randomSrcDests(r, 32, 20)
	res := coverAll(t, rt, Scheme{SerialSchedule: true}, src, dests)
	for sender := range res.Sends {
		if sender != src {
			t.Fatalf("serial schedule recruited sender %d", sender)
		}
	}
}

func TestMultiPhaseUsesSecondarySources(t *testing.T) {
	// On a 32-switch topology a 20-way multicast needs several worms; the
	// multi-phase schedule should recruit at least one secondary sender
	// (if it never does, phases collapse to serial and the scheme loses
	// its defining property).
	recruited := false
	for seed := uint64(1); seed <= 5 && !recruited; seed++ {
		rt := routedCfg(t, topology.Config{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}, seed)
		r := rng.New(seed * 11)
		for trial := 0; trial < 10; trial++ {
			src, dests := randomSrcDests(r, 32, 20)
			res, err := New().Cover(rt, src, dests)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Sends) > 1 {
				recruited = true
				break
			}
		}
	}
	if !recruited {
		t.Fatal("multi-phase schedule never recruited a secondary sender")
	}
}

func TestScheduleRespectsDataDependencies(t *testing.T) {
	rt := routedCfg(t, topology.Config{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}, 4)
	r := rng.New(44)
	for trial := 0; trial < 10; trial++ {
		src, dests := randomSrcDests(r, 32, 20)
		plan, err := New().Plan(rt, sim.DefaultParams(), src, dests, 128)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(32, rt.Topo.NumSwitches); err != nil {
			t.Fatal(err)
		}
		informed := map[topology.NodeID]bool{src: true}
		remaining := map[topology.NodeID][]sim.WormSpec{}
		for s, ws := range plan.HostSends {
			remaining[s] = append([]sim.WormSpec(nil), ws...)
		}
		for rounds := 0; len(remaining) > 0 && rounds < 100; rounds++ {
			progress := false
			for s, ws := range remaining {
				if !informed[s] {
					continue
				}
				for _, w := range ws {
					for _, seg := range w.Path {
						for _, d := range seg.Drops {
							informed[d] = true
						}
					}
				}
				delete(remaining, s)
				progress = true
			}
			if !progress {
				t.Fatalf("trial %d: schedule has senders that never learn the message", trial)
			}
		}
	}
}

func TestSingleSwitchAllDests(t *testing.T) {
	// All destinations on the source's own switch: exactly one worm with
	// one stop and no continuation.
	rt := routedCfg(t, topology.DefaultConfig(), 6)
	groups := map[topology.SwitchID][]topology.NodeID{}
	for n := 0; n < 32; n++ {
		s := rt.Topo.NodeSwitch[n]
		groups[s] = append(groups[s], topology.NodeID(n))
	}
	for _, nodes := range groups {
		if len(nodes) < 3 {
			continue
		}
		src := nodes[0]
		dests := nodes[1:]
		res := coverAll(t, rt, New(), src, dests)
		if res.Worms != 1 || res.Phases != 1 {
			t.Fatalf("got %d worms in %d phases, want 1/1", res.Worms, res.Phases)
		}
		w := res.Sends[src][0]
		if len(w.Path) != 1 || w.Path[0].NextPort != -1 {
			t.Fatalf("degenerate worm shape wrong: %+v", w)
		}
		return
	}
	t.Skip("no switch with 3+ nodes in this topology")
}

func TestPhasesBoundedByLogWorms(t *testing.T) {
	// With binomial sender growth, phases should be far fewer than worms
	// when many worms exist.
	rt := routedCfg(t, topology.Config{Switches: 32, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: 0}, 7)
	r := rng.New(70)
	for trial := 0; trial < 10; trial++ {
		src, dests := randomSrcDests(r, 32, 24)
		res, err := New().Cover(rt, src, dests)
		if err != nil {
			t.Fatal(err)
		}
		if res.Worms >= 4 && res.Phases >= res.Worms {
			t.Fatalf("phases %d not better than serial for %d worms", res.Phases, res.Worms)
		}
	}
}

// TestCoverMatchesReference pins the array-based cover search to the
// map-memoised search it replaced (refCover below): the same sends,
// worms and phases, in the same terminal order and with the same
// tie-breaks, on random topologies and multicast degrees under all four
// Greedy × SerialSchedule settings.
func TestCoverMatchesReference(t *testing.T) {
	r := rng.New(0xc0fe)
	for trial := 0; trial < 40; trial++ {
		rt, src, dests := randomCoverCase(t, r, uint64(trial)+1)
		for _, s := range []Scheme{{}, {Greedy: true}, {SerialSchedule: true}, {Greedy: true, SerialSchedule: true}} {
			got, err := s.Cover(rt, src, dests)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refCover(s, rt, src, dests)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%d switches, %d dests, %+v): Cover made %d worms in %d phases, the reference %d in %d, or their sends differ",
					trial, rt.Topo.NumSwitches, len(dests), s, got.Worms, got.Phases, want.Worms, want.Phases)
			}
		}
	}
}

// randomCoverCase draws a routed topology of 8 to 128 switches and a
// multicast on it.
func randomCoverCase(t *testing.T, r *rng.Source, seed uint64) (*updown.Routing, topology.NodeID, []topology.NodeID) {
	t.Helper()
	cfg := topology.Config{
		Switches:            8 + r.Intn(121),
		PortsPerSwitch:      8,
		ExtraLinksPerSwitch: []float64{-1, 0, 0.5, 1.5}[r.Intn(4)],
	}
	cfg.Nodes = 16 + r.Intn(2*cfg.Switches)
	rt := routedCfg(t, cfg, seed)
	src, dests := randomSrcDests(r, cfg.Nodes, 1+r.Intn(cfg.Nodes-1))
	return rt, src, dests
}

// rebuildResult builds a copy of res the way Cover builds its Result:
// the map, each sender's spec list grown by append, and each worm's
// stops and drops.
func rebuildResult(res Result) Result {
	out := Result{Sends: make(map[topology.NodeID][]sim.WormSpec), Worms: res.Worms, Phases: res.Phases}
	for sender, specs := range res.Sends {
		for _, w := range specs {
			segs := make([]sim.PathSeg, len(w.Path))
			for i, seg := range w.Path {
				segs[i] = seg
				if seg.Drops != nil {
					segs[i].Drops = slices.Clone(seg.Drops)
				}
			}
			out.Sends[sender] = append(out.Sends[sender], sim.WormSpec{Kind: w.Kind, Path: segs})
		}
	}
	return out
}

// TestCoverAllocatesOnlyItsResult pins Cover's pooled scratch: with the
// pool warm, a call allocates no more objects than building a copy of
// its Result does. The collector stays off while it measures, since a
// collection empties the pool. The schedule is serial, so the source
// sends every worm: a map's allocations depend on the order its keys
// arrive in, and with one key the copy cannot differ from Cover there.
func TestCoverAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random quarter of its puts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := rng.New(0xa110c)
	for trial := 0; trial < 10; trial++ {
		rt, src, dests := randomCoverCase(t, r, uint64(trial)+1)
		for _, s := range []Scheme{{SerialSchedule: true}, {SerialSchedule: true, Greedy: true}} {
			res, err := s.Cover(rt, src, dests)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() { _, _ = s.Cover(rt, src, dests) })
			want := testing.AllocsPerRun(20, func() { rebuildResult(res) })
			if got > want {
				t.Errorf("trial %d (%d switches, %d dests, %+v): Cover allocates %v objects, its Result %v",
					trial, rt.Topo.NumSwitches, len(dests), s, got, want)
			}
		}
	}
}

// TestCoverConcurrent runs Cover from several goroutines at once, so that
// they share the scratch pool, on topologies of different sizes: every
// result equals the one computed alone.
func TestCoverConcurrent(t *testing.T) {
	type job struct {
		rt    *updown.Routing
		src   topology.NodeID
		dests []topology.NodeID
		want  Result
	}
	r := rng.New(0xc0c0)
	jobs := make([]job, 8)
	for i := range jobs {
		rt, src, dests := randomCoverCase(t, r, uint64(i)+100)
		want, err := Scheme{}.Cover(rt, src, dests)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{rt, src, dests, want}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := jobs[(g+i)%len(jobs)]
				got, err := Scheme{}.Cover(j.rt, j.src, j.dests)
				if err != nil || !reflect.DeepEqual(got, j.want) {
					t.Errorf("goroutine %d, job %d: Cover differs from its result alone (err %v)", g, (g+i)%len(jobs), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// refCover is the cover search as first written, memoising the dynamic
// program in maps keyed by routing state: the oracle for Cover.
func refCover(s Scheme, rt *updown.Routing, src topology.NodeID, dests []topology.NodeID) (Result, error) {
	groups, switchList := destSwitches(rt, dests)
	uncovered := make(map[topology.SwitchID]bool, len(switchList))
	for _, sw := range switchList {
		uncovered[sw] = true
	}
	res := Result{Sends: make(map[topology.NodeID][]sim.WormSpec)}
	informed := []topology.NodeID{src}
	for len(uncovered) > 0 {
		res.Phases++
		if res.Phases > len(switchList)+2 {
			return Result{}, fmt.Errorf("pathworm: cover failed to converge")
		}
		var newly []topology.NodeID
		usedLinks := map[[2]int]bool{}
		sent := 0
		for _, sender := range informed {
			if len(uncovered) == 0 {
				break
			}
			worm := refBestWorm(rt, rt.Topo.NodeSwitch[sender], uncovered, groups, s.Greedy)
			if sent > 0 && refSharesLink(worm, usedLinks) {
				continue
			}
			refMarkLinks(worm, usedLinks)
			sent++
			res.Sends[sender] = append(res.Sends[sender], worm)
			res.Worms++
			for _, seg := range worm.Path {
				if len(seg.Drops) > 0 {
					delete(uncovered, seg.Switch)
					newly = append(newly, seg.Drops...)
				}
			}
		}
		if !s.SerialSchedule {
			informed = append(informed, newly...)
		}
	}
	return res, nil
}

// refSharesLink reports whether any of the worm's continuation channels
// is already claimed this phase.
func refSharesLink(w sim.WormSpec, used map[[2]int]bool) bool {
	for _, seg := range w.Path {
		if seg.NextPort >= 0 && used[[2]int{int(seg.Switch), seg.NextPort}] {
			return true
		}
	}
	return false
}

func refMarkLinks(w sim.WormSpec, used map[[2]int]bool) {
	for _, seg := range w.Path {
		if seg.NextPort >= 0 {
			used[[2]int{int(seg.Switch), seg.NextPort}] = true
		}
	}
}

// destSwitches returns the destinations grouped by home switch, as a map
// plus the set of switches in ascending ID order.
func destSwitches(rt *updown.Routing, dests []topology.NodeID) (map[topology.SwitchID][]topology.NodeID, []topology.SwitchID) {
	groups := make(map[topology.SwitchID][]topology.NodeID)
	for _, d := range dests {
		s := rt.Topo.NodeSwitch[d]
		groups[s] = append(groups[s], d)
	}
	switches := make([]topology.SwitchID, 0, len(groups))
	for s := range groups {
		switches = append(switches, s)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	return groups, switches
}

func TestDestSwitches(t *testing.T) {
	topos, err := topology.GenerateFamily(topology.DefaultConfig(), 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topos[0])
	if err != nil {
		t.Fatal(err)
	}
	dests := []topology.NodeID{0, 1, 2, 3}
	groups, switches := destSwitches(rt, dests)
	total := 0
	for _, sw := range switches {
		total += len(groups[sw])
		for _, d := range groups[sw] {
			if rt.Topo.NodeSwitch[d] != sw {
				t.Fatalf("node %d grouped under wrong switch", d)
			}
		}
	}
	if total != len(dests) {
		t.Fatalf("groups cover %d of %d", total, len(dests))
	}
	for i := 1; i < len(switches); i++ {
		if switches[i-1] >= switches[i] {
			t.Fatal("switch list not ascending")
		}
	}
}

type refState struct {
	sw topology.SwitchID
	ph updown.Phase
}

func refBestWorm(rt *updown.Routing, s0 topology.SwitchID, uncovered map[topology.SwitchID]bool,
	groups map[topology.SwitchID][]topology.NodeID, greedy bool) sim.WormSpec {
	terminals := make([]topology.SwitchID, 0, len(uncovered))
	for sw := range uncovered {
		terminals = append(terminals, sw)
	}
	sort.Slice(terminals, func(i, j int) bool { return terminals[i] < terminals[j] })

	bestCover, bestLen := -1, int(^uint(0)>>2)
	var bestPath []pathStep
	for _, T := range terminals {
		dist := rt.DistUp(s0, T)
		if !greedy && dist > bestLen-1 && bestPath != nil {
			continue
		}
		cover, path := refMaxCoverPath(rt, s0, T, uncovered)
		length := len(path)
		better := false
		if greedy {
			better = cover > bestCover || (cover == bestCover && length < bestLen)
		} else {
			better = length < bestLen || (length == bestLen && cover > bestCover)
		}
		if better {
			bestCover, bestLen, bestPath = cover, length, path
		}
	}
	segs := make([]sim.PathSeg, len(bestPath))
	for i, step := range bestPath {
		seg := sim.PathSeg{Switch: step.sw, NextPort: step.port}
		if uncovered[step.sw] {
			seg.Drops = append([]topology.NodeID(nil), groups[step.sw]...)
		}
		segs[i] = seg
	}
	return sim.WormSpec{Kind: sim.WormPath, Path: segs}
}

func refMaxCoverPath(rt *updown.Routing, s0, T topology.SwitchID, uncovered map[topology.SwitchID]bool) (int, []pathStep) {
	memo := map[refState]int{}
	choice := map[refState]pathStep{}
	var f func(st refState) int
	f = func(st refState) int {
		if v, ok := memo[st]; ok {
			return v
		}
		cover := 0
		if uncovered[st.sw] {
			cover = 1
		}
		if st.sw == T {
			memo[st] = cover
			choice[st] = pathStep{sw: st.sw, port: -1}
			return cover
		}
		ports, phases := rt.NextHops(st.sw, st.ph, T, nil, nil)
		best := -1
		var bestStep pathStep
		for i, p := range ports {
			next := refState{rt.Topo.Conn[st.sw][p].Switch, phases[i]}
			if v := f(next); v > best || (v == best && p < bestStep.port) {
				best = v
				bestStep = pathStep{sw: st.sw, port: p}
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("pathworm: no legal continuation from switch %d to %d", st.sw, T))
		}
		memo[st] = cover + best
		choice[st] = bestStep
		return cover + best
	}
	start := refState{s0, updown.PhaseUp}
	total := f(start)
	var steps []pathStep
	cur := start
	for {
		step := choice[cur]
		steps = append(steps, step)
		if step.port == -1 {
			break
		}
		nextSw := rt.Topo.Conn[cur.sw][step.port].Switch
		nextPh := cur.ph
		if rt.Dirs[cur.sw][step.port] == updown.DirDown {
			nextPh = updown.PhaseDown
		}
		cur = refState{nextSw, nextPh}
	}
	return total, steps
}
