package sim

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mcastsim/internal/obs"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// TestNewAllocsIndependentOfHosts pins the assembly cost: New allocates a
// number of objects that grows with switches, not hosts. Two fat-trees
// share the switch shape and differ 128x in hosts per edge switch.
func TestNewAllocsIndependentOfHosts(t *testing.T) {
	allocs := func(hostsPerEdge int) float64 {
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

// TestChannelLabels pins every label format derived from the topology:
// ChannelUsage's full set, the obs bundle's registration order (switch
// output channels by (switch, port), then injection channels by node),
// and the channel Checkpoint names when it refuses a busy switch link.
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

	// An otherwise quiescent network whose s1p0 line is still busy.
	n = twoSwitch(t)
	n.switches[1].outPorts[0].ch.lineFree = n.Now() + 1
	err := n.Checkpoint(&bytes.Buffer{})
	var busy *CheckpointBusyError
	if !errors.As(err, &busy) || busy.Reason != "channel s1p0->s0 busy" {
		t.Fatalf("Checkpoint on a busy link returned %v, want reason %q", err, "channel s1p0->s0 busy")
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
		{"deferred burst", func(n *Network) { n.nis[1].injWait = append(n.nis[1].injWait, &burst{}) }, "NI 1 left with 1 deferred"},
		{"held slot", func(n *Network) { n.nis[3].injHeld = 1 }, "NI 3 left with 0 deferred bursts and 1 held"},
		{"injection sender", func(n *Network) { n.nis[2].inj.sender = &branch{} }, "channel inj n2 still has a sender"},
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
