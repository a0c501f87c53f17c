package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mcastsim/internal/obs"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// assemblyFatTree routes the fat-tree the assembly tests share: one switch
// shape (8 edge, 4 aggregation, 4 core switches) with hostsPerEdge hosts
// on each edge switch.
func assemblyFatTree(t *testing.T, hostsPerEdge int) *updown.Routing {
	t.Helper()
	topo, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 2, EdgePerPod: 4, AggPerPod: 2, CoreUplinksPerAgg: 2, HostsPerEdge: hostsPerEdge,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestNewAllocsIndependentOfHosts pins the assembly cost: New allocates a
// number of objects that grows with switches, not hosts. Two fat-trees
// share the switch shape and differ 128x in hosts per edge switch.
func TestNewAllocsIndependentOfHosts(t *testing.T) {
	allocs := func(hostsPerEdge int) float64 {
		rt := assemblyFatTree(t, hostsPerEdge)
		return testing.AllocsPerRun(5, func() {
			if _, err := New(rt, DefaultParams(), 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(512)
	if d := large - small; d < -4 || d > 4 {
		t.Fatalf("New allocates %v objects at 4 hosts per edge switch and %v at 512; want equal within 4", small, large)
	}
}

// TestNewBytesPerHost pins the assembly footprint: New's allocated bytes
// grow by at most 128 per added host, because a host's NI and node-port
// state is built on first use rather than at assembly. Same two
// fat-trees as above; each side is the best of 3 TotalAlloc deltas.
func TestNewBytesPerHost(t *testing.T) {
	alloc := func(hostsPerEdge int) (best uint64, hosts int) {
		rt := assemblyFatTree(t, hostsPerEdge)
		var ms runtime.MemStats
		best = math.MaxUint64
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := New(rt, DefaultParams(), 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			best = min(best, ms.TotalAlloc-before)
		}
		return best, rt.Topo.NumNodes
	}
	small, smallHosts := alloc(4)
	large, largeHosts := alloc(512)
	perHost := (float64(large) - float64(small)) / float64(largeHosts-smallHosts)
	t.Logf("New: %d B at %d hosts, %d B at %d hosts: %.0f B per added host", small, smallHosts, large, largeHosts, perHost)
	if perHost > 128 {
		t.Fatalf("New allocates %d B at %d hosts and %d B at %d: %.0f B per added host, want at most 128",
			small, smallHosts, large, largeHosts, perHost)
	}
}

// TestPristineHosts pins the contract for hosts nothing has touched: they
// read as alive, idle and credit-full everywhere, and building one
// changes nothing anyone can observe.
func TestPristineHosts(t *testing.T) {
	rt := assemblyFatTree(t, 4)
	topo := rt.Topo
	rack := func(node topology.NodeID) []topology.NodeID { return topo.NodesAt(topo.NodeSwitch[node]) }
	plan := groupPlan(0, rack(4)) // host 0 multicasts to the next rack
	run := func(n *Network) {
		if _, err := n.Send(plan, 64, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(0); err != nil {
			t.Fatal(err)
		}
	}

	// ChannelUsage lists every channel, in the order a network with every
	// host built lists them; the untouched hosts carry 0 flits.
	lazy, err := New(rt, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	run(lazy)
	built, err := New(rt, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for node := range topo.NumNodes {
		built.ni(topology.NodeID(node))
	}
	run(built)
	usage := lazy.ChannelUsage()
	if want := built.ChannelUsage(); !reflect.DeepEqual(usage, want) {
		t.Fatalf("ChannelUsage with pristine hosts differs from all hosts built:\n got %v\nwant %v", usage, want)
	}
	var labels []string
	for s, conns := range topo.Conn {
		for p, e := range conns {
			if e.Kind != topology.Open {
				labels = append(labels, lazy.portLabel(s, p))
			}
		}
	}
	for node := range topo.NumNodes {
		labels = append(labels, injLabel(node))
	}
	var got []string
	flits := map[string]int64{}
	for _, u := range usage {
		got = append(got, u.Label)
		flits[u.Label] = u.Flits
	}
	slices.Sort(got)
	slices.Sort(labels)
	if !slices.Equal(got, labels) {
		t.Fatalf("ChannelUsage labels %q, want every channel %q", got, labels)
	}
	edge := topo.NodeSwitch[topo.NumNodes-1] // the last rack; the run never touched it
	dead := topo.NodesAt(edge)
	for _, node := range dead {
		if lazy.nis[node] != nil {
			t.Fatalf("host %d was built by a run that never touched it", node)
		}
		for _, l := range []string{fmt.Sprintf("ej n%d", node), injLabel(int(node))} {
			if flits[l] != 0 {
				t.Fatalf("untouched channel %s carried %d flits", l, flits[l])
			}
		}
	}

	// Failing the untouched rack's switch kills its pristine hosts, and the
	// drained network still balances.
	lazy.FailSwitch(edge)
	if err := lazy.Drain(0); err != nil {
		t.Fatal(err)
	}
	for _, node := range dead {
		if lazy.NodeAlive(node) {
			t.Fatalf("host %d on failed switch %d still alive", node, edge)
		}
	}
	if !lazy.NodeAlive(topo.NodesAt(topo.NodeSwitch[8])[0]) {
		t.Fatal("a pristine host on a live switch reads dead")
	}
	if err := lazy.CheckConservation(); err != nil {
		t.Fatalf("conservation after failing a pristine rack: %v", err)
	}
}

// TestChannelLabels pins every label format derived from the topology:
// ChannelUsage's full set and the obs bundle's registration order
// (switch output channels by (switch, port), then injection channels by
// node).
func TestChannelLabels(t *testing.T) {
	wantObs := []string{
		"s0p0->s1", "ej n0", "ej n1",
		"s1p0->s0", "ej n2", "ej n3",
		"inj n0", "inj n1", "inj n2", "inj n3",
	}

	n := twoSwitch(t)
	var got []string
	for _, u := range n.ChannelUsage() {
		got = append(got, u.Label)
	}
	want := slices.Clone(wantObs)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("ChannelUsage labels %q, want %q in any order", got, want)
	}

	rec := obs.NewRecorder(obs.Config{Every: 100})
	twoSwitchOpts(t, WithObs(rec))
	if got := rec.Bundle("labels").Channels; !reflect.DeepEqual(got, wantObs) {
		t.Fatalf("obs channel labels %q, want %q", got, wantObs)
	}
}

// TestCheckConservationCatchesCreditAndInjectionResidue drains a network,
// then plants one fault at a time that the flit and packet counters
// cannot see: a credit missing from a switch link, a deferred burst or a
// held buffer slot left at an NI, and a sender left on an injection line.
// Each must fail the idle-network check.
func TestCheckConservationCatchesCreditAndInjectionResidue(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(n *Network)
		want  string
	}{
		{"missing credit", func(n *Network) { n.switches[0].outPorts[0].ch.credits-- }, "channel s0p0->s1 holds"},
		{"deferred burst", func(n *Network) { x := n.ni(1); x.injWait = append(x.injWait, &burst{}) }, "NI 1 left with 1 deferred"},
		{"held slot", func(n *Network) { n.ni(3).injHeld = 1 }, "NI 3 left with 0 deferred bursts and 1 held"},
		{"injection sender", func(n *Network) { n.ni(2).inj.sender = &branch{} }, "channel inj n2 still has a sender"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := twoSwitch(t)
			mustRun(t, n, unicastPlan(0, 2), 128)
			tc.plant(n)
			err := n.CheckConservation()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckConservation = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
