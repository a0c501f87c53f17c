package sim

import (
	"testing"

	"mcastsim/internal/topology"
)

// TestNonTailHopsFuse checks that fusion and chaining fire: on a
// fault-free run at LinkDelay 1 every non-tail flit hop runs inside an
// evFlit record, and hops of one cycle share records. The unfused path
// and the one-record-per-hop path are both exact, so without this test a
// change that silently stopped fusing or chaining would pass every other
// check. evFlit and evTail are re-registered with counting wrappers, the
// evFlit one walking the record's chain as the real handler does; each
// branch posts one evTail, so the non-tail hops are the flit hops minus
// the tails.
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
			var records, fused, tails int64
			n.queue.Register(evFlit, func(a any, _ int64) {
				records++
				for br := a.(*branch); br != nil; {
					next := br.chain
					br.chain = nil
					fused++
					br.flitHop()
					br = next
				}
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
			if records >= fused {
				t.Fatalf("%d fused hops ran in %d evFlit records, want fewer records than hops", fused, records)
			}
			t.Logf("%d fused hops in %d evFlit records", fused, records)
		})
	}
}
