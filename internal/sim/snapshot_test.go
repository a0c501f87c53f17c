package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcastsim/internal/snap"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// A ckptScenario runs to a quiescent point (phaseA), where the harness
// checkpoints, then continues (phaseB). The harness proves the restored
// continuation byte-identical — traces, stats, clocks, group counters —
// to the uninterrupted run.
type ckptScenario struct {
	name   string
	params func() Params
	phaseA func(t *testing.T, n *Network)
	phaseB func(t *testing.T, n *Network)
}

// netDigest summarizes every externally observable piece of network
// state the snapshot must carry.
func netDigest(n *Network) string {
	var g strings.Builder
	for _, gr := range n.Groups() {
		fmt.Fprintf(&g, "[%s e=%d j=%d l=%d st=%d mi=%d mem=%v]",
			gr.Name(), gr.Epoch(), gr.Joins(), gr.Leaves(), gr.Stale(), gr.Missed(), gr.Members())
	}
	return fmt.Sprintf("t=%d ev=%d stats=%+v worm=%d msg=%d rc=%d re=%d faulted=%v part=%v root=%d groups=%s",
		n.Now(), n.EventsProcessed(), n.Stats(), n.nextWormID, n.nextMsgID,
		n.reconfigEpoch, n.routingEpoch, n.faulted, n.partitioned, n.rt.Root, g.String())
}

// traceInto returns a WithTrace option appending every event to sink.
func traceInto(sink *[]TraceEvent) Option {
	return WithTrace(func(ev TraceEvent) { *sink = append(*sink, ev) })
}

// runCkptScenario checkpoints at the end of phaseA, restores into a fresh
// network, and compares the continuation against an uninterrupted run.
func runCkptScenario(t *testing.T, sc ckptScenario) {
	t.Helper()

	// Uninterrupted reference.
	var ref []TraceEvent
	n1 := fixtureNetOpts(t, sc.params(), traceInto(&ref))
	sc.phaseA(t, n1)
	mark := len(ref)
	sc.phaseB(t, n1)
	refTail := ref[mark:]
	refDigest := netDigest(n1)

	// Interrupted: phaseA, checkpoint, restore into a fresh network,
	// continue.
	var pre []TraceEvent
	n2 := fixtureNetOpts(t, sc.params(), traceInto(&pre))
	sc.phaseA(t, n2)
	var buf bytes.Buffer
	if err := n2.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	var tail []TraceEvent
	n3 := fixtureNetOpts(t, sc.params(), traceInto(&tail))
	if err := n3.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	sc.phaseB(t, n3)

	if got := netDigest(n3); got != refDigest {
		t.Errorf("restored digest diverged:\n got %s\nwant %s", got, refDigest)
	}
	if !reflect.DeepEqual(tail, refTail) {
		t.Errorf("restored continuation trace diverged: %d events vs %d", len(tail), len(refTail))
		for i := 0; i < len(tail) && i < len(refTail); i++ {
			if tail[i] != refTail[i] {
				t.Errorf("first divergence at %d:\n got %+v\nwant %+v", i, tail[i], refTail[i])
				break
			}
		}
	}

	// Checkpoint is non-mutating: the checkpointed network continues to
	// the same end state.
	sc.phaseB(t, n2)
	if got := netDigest(n2); got != refDigest {
		t.Errorf("checkpoint perturbed the live network:\n got %s\nwant %s", got, refDigest)
	}
}

func sendProbe(t *testing.T, n *Network, src, dst topology.NodeID, flits int) {
	t.Helper()
	if _, err := n.Send(unicastPlan(src, dst), flits, n.Now(), nil); err != nil {
		t.Fatalf("Send %d->%d: %v", src, dst, err)
	}
}

var ckptScenarios = []ckptScenario{
	{
		// Pending fault schedule plus an already-performed routing swap:
		// the snapshot carries the fault masks, the reconfiguration's
		// updown options, and the future fail/repair events.
		name:   "faults",
		params: DefaultParams,
		phaseA: func(t *testing.T, n *Network) {
			err := n.InstallFaults(&FaultSchedule{Events: []FaultEvent{
				{At: 500, Kind: FaultLink, Link: 0},
				{At: 4000, Kind: RepairLink, Link: 0},
				{At: 8000, Kind: FaultSwitch, Switch: 6},
			}})
			if err != nil {
				t.Fatalf("InstallFaults: %v", err)
			}
			sendProbe(t, n, 0, 7, 128)
			n.RunUntil(3500) // probe raced the t=500 fault; reconfig swapped at t=2500
			if n.Outstanding() != 0 {
				t.Fatalf("probe still outstanding at t=3500")
			}
		},
		phaseB: func(t *testing.T, n *Network) {
			sendProbe(t, n, 1, 4, 128)
			n.RunUntil(7000) // across the repair
			sendProbe(t, n, 0, 3, 128)
			if err := n.Drain(0); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		},
	},
	{
		// Pending membership schedule with live group counters and an
		// in-flight-snapshot history (missed/stale races) behind them.
		name:   "churn",
		params: DefaultParams,
		phaseA: func(t *testing.T, n *Network) {
			g, err := n.NewGroup("workers", []topology.NodeID{1, 2, 3})
			if err != nil {
				t.Fatalf("NewGroup: %v", err)
			}
			err = n.InstallMembership(&MembershipSchedule{Events: []MembershipEvent{
				{At: 300, Group: g.ID(), Node: 5, Kind: MemberJoin},
				{At: 5000, Group: g.ID(), Node: 2, Kind: MemberLeave},
				{At: 9000, Group: g.ID(), Node: 6, Kind: MemberJoin},
			}})
			if err != nil {
				t.Fatalf("InstallMembership: %v", err)
			}
			if _, err := n.SendToGroup(g, groupPlan(0, g.Members()), 128, 0, nil); err != nil {
				t.Fatalf("SendToGroup: %v", err)
			}
			n.RunUntil(3000)
			if n.Outstanding() != 0 {
				t.Fatalf("group send still outstanding at t=3000")
			}
		},
		phaseB: func(t *testing.T, n *Network) {
			g := n.Groups()[0]
			if _, err := n.SendToGroup(g, groupPlan(0, g.Members()), 128, n.Now(), nil); err != nil {
				t.Fatalf("SendToGroup: %v", err)
			}
			n.RunUntil(7000) // across the leave
			g = n.Groups()[0]
			if _, err := n.SendToGroup(g, groupPlan(0, g.Members()), 128, n.Now(), nil); err != nil {
				t.Fatalf("SendToGroup: %v", err)
			}
			if err := n.Drain(0); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		},
	},
	{
		// A reliable send that completed long before its per-attempt
		// deadline leaves a stale evMsgTimeout pending; the restored
		// placeholder must advance the clock and the processed count
		// exactly like the real no-op timeout.
		name:   "retry-timer",
		params: DefaultParams,
		phaseA: func(t *testing.T, n *Network) {
			replan := func(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID, flits int) (*Plan, error) {
				return groupPlan(src, dests), nil
			}
			pol := RetryPolicy{Timeout: 6000, Backoff: 500, BackoffFactor: 2, MaxAttempts: 3}
			if _, err := n.SendReliable(unicastPlan(0, 7), 128, 0, replan, pol, nil); err != nil {
				t.Fatalf("SendReliable: %v", err)
			}
			n.RunUntil(2000)
			if n.Outstanding() != 0 {
				t.Fatalf("reliable send still outstanding at t=2000")
			}
			if n.queue.Len() == 0 {
				t.Fatalf("expected a stale evMsgTimeout pending at checkpoint")
			}
		},
		phaseB: func(t *testing.T, n *Network) {
			sendProbe(t, n, 2, 5, 128)
			n.RunUntil(7000) // pops the stale timeout at t=6000
			sendProbe(t, n, 4, 1, 64)
			if err := n.Drain(0); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		},
	},
	{
		// A long link delay stretches the branch-reclaim quarantine past
		// message completion, so quiescence is reached with evReclaim
		// events still pending; their placeholders must pop identically.
		name: "pending-reclaims",
		params: func() Params {
			p := DefaultParams()
			p.LinkDelay = 40
			p.OHostSend, p.OHostRecv = 1, 1
			p.ONISend, p.ONIRecv = 1, 1
			return p
		},
		phaseA: func(t *testing.T, n *Network) {
			m, err := n.Send(unicastPlan(0, 7), 128, n.Now(), nil)
			if err != nil {
				t.Fatalf("Send: %v", err)
			}
			// Let the worm enter the fabric, then abort it. The kill
			// completes the message immediately but leaves evReclaim
			// quarantine timers pending reclaimAfter cycles out — a
			// short window after the drained flits and credits where
			// the network is quiescent with reclaims still scheduled.
			for n.Stats().FlitHops == 0 {
				n.RunUntil(n.Now() + 1)
			}
			n.AbortMessage(m)
			deadline := n.Now() + 10_000
			for {
				if n.Outstanding() == 0 && n.queue.Len() > 0 {
					if _, err := n.checkQuiescent(); err == nil {
						break
					}
				}
				if n.Now() >= deadline {
					t.Fatalf("no quiescent point with pending reclaims found")
				}
				n.RunUntil(n.Now() + 1)
			}
		},
		phaseB: func(t *testing.T, n *Network) {
			sendProbe(t, n, 3, 6, 128)
			if err := n.Drain(0); err != nil {
				t.Fatalf("Drain: %v", err)
			}
		},
	},
}

// TestCheckpointRestoreEqualsUninterrupted is the tier-1 determinism
// property: for every schedule type, a checkpoint/restore cycle at a
// quiescent point is invisible — the continuation's traces and final
// state are byte-identical to the run that never stopped.
//
// Subtests keep their shards=1 names from when the engine had a shard
// axis; every run is on the single calendar queue.
func TestCheckpointRestoreEqualsUninterrupted(t *testing.T) {
	for _, sc := range ckptScenarios {
		t.Run(sc.name+"/shards=1", func(t *testing.T) {
			runCkptScenario(t, sc)
		})
	}
}

func TestCheckpointRefusesNonQuiescent(t *testing.T) {
	var busy *CheckpointBusyError

	t.Run("in-flight message", func(t *testing.T) {
		n := fixtureNet(t, DefaultParams())
		sendProbe(t, n, 0, 7, 128)
		n.RunUntil(50)
		if err := n.Checkpoint(&bytes.Buffer{}); !errors.As(err, &busy) {
			t.Fatalf("got %v, want *CheckpointBusyError", err)
		}
	})

	t.Run("pending closure", func(t *testing.T) {
		n := fixtureNet(t, DefaultParams())
		n.Schedule(1000, func() {})
		err := n.Checkpoint(&bytes.Buffer{})
		if !errors.As(err, &busy) {
			t.Fatalf("got %v, want *CheckpointBusyError", err)
		}
		if !strings.Contains(err.Error(), "evSched") {
			t.Fatalf("busy error should name the pending kind: %v", err)
		}
	})
}

func TestRestoreRequiresVirginNetwork(t *testing.T) {
	src := fixtureNet(t, DefaultParams())
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	used := fixtureNet(t, DefaultParams())
	mustRun(t, used, unicastPlan(0, 7), 128)
	if err := used.Restore(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "virgin") {
		t.Fatalf("Restore into a used network: got %v", err)
	}
}

func TestRestoreMismatchedShape(t *testing.T) {
	src := fixtureNet(t, DefaultParams())
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	var mm *SnapshotMismatchError
	t.Run("different topology", func(t *testing.T) {
		n := twoSwitch(t)
		if err := n.Restore(bytes.NewReader(buf.Bytes())); !errors.As(err, &mm) {
			t.Fatalf("got %v, want *SnapshotMismatchError", err)
		}
	})
	t.Run("different params", func(t *testing.T) {
		p := DefaultParams()
		p.OHostSend = 999
		n := fixtureNet(t, p)
		if err := n.Restore(bytes.NewReader(buf.Bytes())); !errors.As(err, &mm) {
			t.Fatalf("got %v, want *SnapshotMismatchError", err)
		}
		if mm.Field != "params digest" {
			t.Fatalf("mismatch field = %q", mm.Field)
		}
	})
}

// TestRestoreCorruptSnapshot proves the no-partial-restore contract: a
// corrupted or truncated stream fails with a typed error and leaves the
// target network untouched — still virgin, still able to restore the
// intact snapshot afterwards.
func TestRestoreCorruptSnapshot(t *testing.T) {
	src := fixtureNet(t, DefaultParams())
	if err := src.InstallFaults(&FaultSchedule{Events: []FaultEvent{
		{At: 5000, Kind: FaultLink, Link: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	g, err := src.NewGroup("g", []topology.NodeID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	mustRun(t, src, unicastPlan(0, 7), 128)
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	good := buf.Bytes()

	n := fixtureNet(t, DefaultParams())

	// Truncations at a spread of cut points.
	for _, cut := range []int{0, 3, 6, 10, len(good) / 2, len(good) - 1} {
		if err := n.Restore(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncated at %d: restored cleanly", cut)
		}
	}

	// Bit-flip corruption past the header.
	for _, pos := range []int{8, 20, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x40
		if err := n.Restore(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corrupt byte at %d: restored cleanly", pos)
		}
	}

	// Wrong version fails with the typed header error.
	bad := append([]byte(nil), good...)
	bad[4] ^= 0xff
	var ve *snap.VersionError
	if err := n.Restore(bytes.NewReader(bad)); !errors.As(err, &ve) {
		t.Fatalf("version flip: got %v, want *snap.VersionError", err)
	}

	// The network was never partially mutated: the intact snapshot still
	// restores, and the continuation works.
	if err := n.Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact restore after corrupt attempts: %v", err)
	}
	mustRunAfterRestore(t, n)
}

func mustRunAfterRestore(t *testing.T, n *Network) {
	t.Helper()
	if _, err := n.Send(unicastPlan(1, 6), 64, n.Now(), nil); err != nil {
		t.Fatalf("Send after restore: %v", err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatalf("Drain after restore: %v", err)
	}
	if err := n.CheckConservation(); err == nil {
		// Conservation counters include the pre-checkpoint history; they
		// must still balance because the snapshot carried them whole.
	} else {
		t.Fatalf("conservation after restore: %v", err)
	}
}
