package sim

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"mcastsim/internal/topology"
)

// ckptFixturePath holds a committed snapshot of ckptFixtureScenario's
// quiescent point. It pins the snapshot format byte for byte: any change
// to what Checkpoint writes for the same history, or to how Restore reads
// it back, shows up here even when a live checkpoint/restore round trip
// still agrees with itself.
const ckptFixturePath = "testdata/checkpoint_faults_churn.snap"

// ckptFixtureScenario reaches a quiescent point with control-plane events
// of every fixed-shape kind pending: a link repair and a switch failure
// (evFaultApply), a leave and a join (evMembership), after a fault that
// already forced a routing swap and a join that raced a group send.
var ckptFixtureScenario = ckptScenario{
	name:   "faults+churn",
	params: DefaultParams,
	phaseA: func(t *testing.T, n *Network) {
		if err := n.InstallFaults(&FaultSchedule{Events: []FaultEvent{
			{At: 500, Kind: FaultLink, Link: 0},
			{At: 4000, Kind: RepairLink, Link: 0},
			{At: 8000, Kind: FaultSwitch, Switch: 6},
		}}); err != nil {
			t.Fatalf("InstallFaults: %v", err)
		}
		g, err := n.NewGroup("workers", []topology.NodeID{1, 2, 3})
		if err != nil {
			t.Fatalf("NewGroup: %v", err)
		}
		if err := n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
			{At: 300, Group: g.ID(), Node: 5, Kind: MemberJoin},
			{At: 5000, Group: g.ID(), Node: 2, Kind: MemberLeave},
			{At: 9000, Group: g.ID(), Node: 4, Kind: MemberJoin},
		}}); err != nil {
			t.Fatalf("InstallMembership: %v", err)
		}
		if _, err := n.SendToGroup(g, groupPlan(0, g.Members()), 128, 0, nil); err != nil {
			t.Fatalf("SendToGroup: %v", err)
		}
		sendProbe(t, n, 0, 7, 128)
		n.RunUntil(3500)
		if n.Outstanding() != 0 {
			t.Fatalf("traffic still outstanding at t=3500")
		}
	},
	phaseB: func(t *testing.T, n *Network) {
		g := n.Groups()[0]
		if _, err := n.SendToGroup(g, groupPlan(0, g.Members()), 128, n.Now(), nil); err != nil {
			t.Fatalf("SendToGroup: %v", err)
		}
		sendProbe(t, n, 1, 4, 128)
		n.RunUntil(7000) // across the repair and the leave
		g = n.Groups()[0]
		if _, err := n.SendToGroup(g, groupPlan(0, g.Members()), 128, n.Now(), nil); err != nil {
			t.Fatalf("SendToGroup: %v", err)
		}
		sendProbe(t, n, 0, 3, 128)
		if err := n.Drain(0); err != nil {
			t.Fatalf("Drain: %v", err)
		}
	},
}

// ckptFixtureBytes runs the fixture scenario to its quiescent point on a
// fresh network and returns the checkpoint it writes there.
func ckptFixtureBytes(t *testing.T) []byte {
	t.Helper()
	n := fixtureNetOpts(t, ckptFixtureScenario.params())
	ckptFixtureScenario.phaseA(t, n)
	var buf bytes.Buffer
	if err := n.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointFixture pins the snapshot format: the same history must
// write the committed bytes, and restoring the committed bytes must
// continue exactly like the run that never stopped.
func TestCheckpointFixture(t *testing.T) {
	want, err := os.ReadFile(ckptFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckptFixtureBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes diverged from %s: %d bytes, fixture has %d", ckptFixturePath, len(got), len(want))
	}

	sc := ckptFixtureScenario
	var ref []TraceEvent
	n1 := fixtureNetOpts(t, sc.params(), WithTrace(func(ev TraceEvent) { ref = append(ref, ev) }))
	sc.phaseA(t, n1)
	mark := len(ref)
	sc.phaseB(t, n1)

	var tail []TraceEvent
	n2 := fixtureNetOpts(t, sc.params(), WithTrace(func(ev TraceEvent) { tail = append(tail, ev) }))
	if err := n2.Restore(bytes.NewReader(want)); err != nil {
		t.Fatalf("Restore fixture: %v", err)
	}
	sc.phaseB(t, n2)

	if got, want := netDigest(n2), netDigest(n1); got != want {
		t.Errorf("restored digest diverged:\n got %s\nwant %s", got, want)
	}
	if !reflect.DeepEqual(tail, ref[mark:]) {
		t.Errorf("restored continuation trace diverged: %d events vs %d", len(tail), len(ref)-mark)
	}
}
