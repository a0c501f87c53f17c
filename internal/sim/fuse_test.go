package sim

import (
	"testing"

	"mcastsim/internal/topology"
)

// TestNonTailHopsFuse checks that fusion fires: on a fault-free run at
// LinkDelay 1 every non-tail flit hop runs as one evFlit record. The
// unfused path is the reference behaviour, so without this test a change
// that silently stopped fusing would pass every other check. evFlit and
// evTail are re-registered with counting wrappers; each branch posts one
// evTail, so the non-tail hops are the flit hops minus the tails.
func TestNonTailHopsFuse(t *testing.T) {
	dests := []topology.NodeID{3, 5, 6, 7}
	tree := &Plan{
		Source:    0,
		Dests:     dests,
		HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormTree, DestSet: dests}}},
	}
	for _, c := range []struct {
		name string
		plan *Plan
	}{
		{"unicast", unicastPlan(0, 7)},
		{"tree", tree},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := fixtureNet(t, DefaultParams())
			var fused, tails int64
			n.queue.Register(evFlit, func(a any, arg int64) {
				fused++
				a.(*branch).flitHop(int(arg))
			})
			n.queue.Register(evTail, func(a any, _ int64) {
				tails++
				a.(*branch).tailRelease()
			})
			mustRun(t, n, c.plan, 128)
			hops := n.Stats().FlitHops
			if fused == 0 || fused != hops-tails {
				t.Fatalf("%d of %d non-tail flit hops fused (%d hops, %d tails)", fused, hops-tails, hops, tails)
			}
		})
	}
}
