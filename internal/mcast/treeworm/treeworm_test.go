package treeworm

import (
	"testing"

	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

func TestPlanShape(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	dests := []topology.NodeID{3, 9, 17}
	plan, err := New().Plan(rt, sim.DefaultParams(), 0, dests, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(32, rt.Topo.NumSwitches); err != nil {
		t.Fatal(err)
	}
	specs := plan.HostSends[0]
	if len(plan.HostSends) != 1 || len(specs) != 1 {
		t.Fatalf("tree scheme must issue exactly one send, got %+v", plan.HostSends)
	}
	if specs[0].Kind != sim.WormTree || len(specs[0].DestSet) != 3 {
		t.Fatalf("bad worm spec %+v", specs[0])
	}
}

func TestPlanCopiesDestSet(t *testing.T) {
	topo, _ := topology.Generate(topology.DefaultConfig(), rng.New(2))
	rt, _ := updown.New(topo)
	dests := []topology.NodeID{1, 2}
	plan, err := New().Plan(rt, sim.DefaultParams(), 0, dests, 128)
	if err != nil {
		t.Fatal(err)
	}
	dests[0] = 31 // caller mutation must not corrupt the plan
	if plan.HostSends[0][0].DestSet[0] != 1 {
		t.Fatal("plan aliases the caller's destination slice")
	}
}
