package traffic

import (
	"testing"

	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/binomial"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// runSingleLats, runLoadPoint and runMixedLats drive Run in one mode
// and unwrap that mode's result, keeping call sites compact.
func runSingleLats(rt *updown.Routing, w Workload, probes int) ([]float64, error) {
	res, err := Run(rt, w, WithProbes(probes))
	if err != nil {
		return nil, err
	}
	return res.Latencies, nil
}

func runLoadPoint(rt *updown.Routing, w Workload, spec LoadSpec) (LoadResult, error) {
	res, err := Run(rt, w, WithLoad(spec))
	if err != nil {
		return LoadResult{}, err
	}
	return *res.Load, nil
}

func runMixedLats(rt *updown.Routing, w Workload, spec MixedSpec) ([]float64, error) {
	res, err := Run(rt, w, WithMixed(spec))
	if err != nil {
		return nil, err
	}
	return res.Latencies, nil
}

func routed(t *testing.T, seed uint64) *updown.Routing {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestDestsFromExcludesSource(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		src := topology.NodeID(r.Intn(32))
		dests := destsFrom(r, 32, 8, src)
		if len(dests) != 8 {
			t.Fatalf("degree %d", len(dests))
		}
		seen := map[topology.NodeID]bool{}
		for _, d := range dests {
			if d == src {
				t.Fatal("source drawn as destination")
			}
			if int(d) < 0 || int(d) >= 32 {
				t.Fatalf("destination %d out of range", d)
			}
			if seen[d] {
				t.Fatal("duplicate destination")
			}
			seen[d] = true
		}
	}
}

func TestRunSingleAllSchemes(t *testing.T) {
	rt := routed(t, 3)
	for _, sch := range []mcast.Scheme{binomial.New(), kbinomial.New(), treeworm.New(), pathworm.New()} {
		lats, err := runSingleLats(rt, Workload{Scheme: sch, Params: sim.DefaultParams(),
			Degree: 16, MsgFlits: 128, Seed: 9}, 5)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		if len(lats) != 5 {
			t.Fatalf("%s: %d probes", sch.Name(), len(lats))
		}
		for _, l := range lats {
			if l <= 0 {
				t.Fatalf("%s: non-positive latency %v", sch.Name(), l)
			}
		}
	}
}

func TestRunSingleDeterministic(t *testing.T) {
	rt := routed(t, 4)
	w := Workload{Scheme: treeworm.New(),
		Params: sim.DefaultParams(), Degree: 8, MsgFlits: 128, Seed: 11}
	a, err := runSingleLats(rt, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSingleLats(rt, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d diverged", i)
		}
	}
}

func TestSingleMulticastOrdering(t *testing.T) {
	// At default parameters the paper's central single-multicast result:
	// tree (one phase) < {NI-based, path-based} < binomial baseline.
	rt := routed(t, 5)
	p := sim.DefaultParams()
	mean := func(s mcast.Scheme) float64 {
		lats, err := runSingleLats(rt, Workload{Scheme: s, Params: p, Degree: 16, MsgFlits: 128, Seed: 21}, 10)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, l := range lats {
			sum += l
		}
		return sum / float64(len(lats))
	}
	tree := mean(treeworm.New())
	path := mean(pathworm.New())
	ni := mean(kbinomial.New())
	base := mean(binomial.New())
	if !(tree < path && tree < ni) {
		t.Fatalf("tree worm not fastest: tree=%v path=%v ni=%v", tree, path, ni)
	}
	if !(base > tree && base > path) {
		t.Fatalf("binomial baseline not slowest of host schemes: base=%v tree=%v path=%v", base, tree, path)
	}
}

func TestRunLoadLowLoadMatchesSingle(t *testing.T) {
	// At very low load, mean latency must approach the isolated latency.
	rt := routed(t, 6)
	p := sim.DefaultParams()
	sch := treeworm.New()
	iso, err := runSingleLats(rt, Workload{Scheme: sch, Params: p, Degree: 8, MsgFlits: 128, Seed: 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var isoMean float64
	for _, l := range iso {
		isoMean += l
	}
	isoMean /= float64(len(iso))

	res, err := runLoadPoint(rt,
		Workload{Scheme: sch, Params: p, Degree: 8, MsgFlits: 128, Seed: 12},
		LoadSpec{EffectiveLoad: 0.02, Warmup: 20000, Measure: 60000, Drain: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("saturated at 2% load")
	}
	if res.Latency.Count == 0 {
		t.Fatal("no measured messages")
	}
	if res.Latency.Mean < 0.8*isoMean || res.Latency.Mean > 2.0*isoMean {
		t.Fatalf("low-load latency %v vs isolated %v", res.Latency.Mean, isoMean)
	}
}

func TestRunLoadLatencyIncreasesWithLoad(t *testing.T) {
	rt := routed(t, 7)
	p := sim.DefaultParams()
	w := Workload{Scheme: treeworm.New(), Params: p, Degree: 8, MsgFlits: 128, Seed: 13}
	base := LoadSpec{Warmup: 20000, Measure: 60000, Drain: 40000}
	lo := base
	lo.EffectiveLoad = 0.05
	hi := base
	hi.EffectiveLoad = 0.5
	rl, err := runLoadPoint(rt, w, lo)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := runLoadPoint(rt, w, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !rh.Saturated && rh.Latency.Mean <= rl.Latency.Mean {
		t.Fatalf("latency did not increase with load: %v -> %v", rl.Latency.Mean, rh.Latency.Mean)
	}
}

func TestRunLoadRejectsBadConfig(t *testing.T) {
	rt := routed(t, 9)
	w := Workload{Scheme: treeworm.New(), Params: sim.DefaultParams(), Degree: 8, MsgFlits: 128}
	if _, err := runLoadPoint(rt, w,
		LoadSpec{EffectiveLoad: 0, Warmup: 1, Measure: 1, Drain: 1}); err == nil {
		t.Fatal("zero load accepted")
	}
	if _, err := runLoadPoint(rt, w,
		LoadSpec{EffectiveLoad: 0.1, Warmup: 1, Measure: 0, Drain: 1}); err == nil {
		t.Fatal("zero measure window accepted")
	}
}

func TestRunSingleRejectsBadProbes(t *testing.T) {
	rt := routed(t, 10)
	if _, err := runSingleLats(rt,
		Workload{Scheme: treeworm.New(), Params: sim.DefaultParams(), Degree: 8, MsgFlits: 128},
		0); err == nil {
		t.Fatal("zero probes accepted")
	}
}

func TestRunMixedBackgroundSlowsMulticast(t *testing.T) {
	rt := routed(t, 11)
	p := sim.DefaultParams()
	w := Workload{Scheme: treeworm.New(), Params: p, Degree: 8, MsgFlits: 128, Seed: 31}
	base := MixedSpec{BackgroundFlits: 128, Probes: 8, ProbeGap: 4000, Warmup: 8000}
	quiet := base
	quiet.BackgroundLoad = 0
	qLats, err := runMixedLats(rt, w, quiet)
	if err != nil {
		t.Fatal(err)
	}
	busy := base
	busy.BackgroundLoad = 0.15
	bLats, err := runMixedLats(rt, w, busy)
	if err != nil {
		t.Fatal(err)
	}
	var qm, bm float64
	for _, v := range qLats {
		qm += v
	}
	for _, v := range bLats {
		bm += v
	}
	qm /= float64(len(qLats))
	bm /= float64(len(bLats))
	if bm <= qm {
		t.Fatalf("background traffic did not slow multicast: quiet=%v busy=%v", qm, bm)
	}
}

func TestRunMixedQuietMatchesSingle(t *testing.T) {
	rt := routed(t, 12)
	p := sim.DefaultParams()
	lats, err := runMixedLats(rt,
		Workload{Scheme: treeworm.New(), Params: p, Degree: 8, MsgFlits: 128, Seed: 32},
		MixedSpec{BackgroundLoad: 0, BackgroundFlits: 128,
			Probes: 6, ProbeGap: 5000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	iso, err := runSingleLats(rt, Workload{Scheme: treeworm.New(),
		Params: p, Degree: 8, MsgFlits: 128, Seed: 33}, 6)
	if err != nil {
		t.Fatal(err)
	}
	var mm, im float64
	for _, v := range lats {
		mm += v
	}
	for _, v := range iso {
		im += v
	}
	mm /= float64(len(lats))
	im /= float64(len(iso))
	if mm < 0.7*im || mm > 1.4*im {
		t.Fatalf("quiet mixed (%v) far from isolated (%v)", mm, im)
	}
}

func TestRunMixedRejectsBadConfig(t *testing.T) {
	rt := routed(t, 13)
	w := Workload{Scheme: treeworm.New(), Params: sim.DefaultParams(), Degree: 8, MsgFlits: 128}
	if _, err := runMixedLats(rt, w, MixedSpec{Probes: 0, ProbeGap: 100}); err == nil {
		t.Fatal("zero probes accepted")
	}
	if _, err := runMixedLats(rt, w, MixedSpec{Probes: 3, ProbeGap: 100, BackgroundLoad: -1}); err == nil {
		t.Fatal("negative background accepted")
	}
}
