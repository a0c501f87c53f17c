package updown

import (
	"testing"

	"mcastsim/internal/destset"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
)

// This file property-tests the fault-masked routing path: for random
// sequences of non-partitioning link removals, the masked routing state
// (Options.DeadLinks on the original topology) must stay legal, keep
// every switch pair mutually reachable, keep its reachability
// strings exact, and agree run for run with routing computed fresh on a
// rebuilt topology with the links actually gone (RemoveLink preserves
// port numbering, so the two constructions must coincide).

// checkOrientationLegal asserts the up*/down* orientation invariants: a
// live link is up on exactly one side, dead/open/node ports carry no
// direction, and no switch other than the root lacks an up port.
func checkOrientationLegal(t *testing.T, rt *Routing) {
	t.Helper()
	topo := rt.Topo
	for li, l := range topo.Links {
		da, db := rt.Dirs[l.A][l.APort], rt.Dirs[l.B][l.BPort]
		if !rt.PortAlive(l.A, l.APort) || !rt.PortAlive(l.B, l.BPort) {
			if da != DirNone || db != DirNone {
				t.Fatalf("dead link %d still oriented (%v/%v)", li, da, db)
			}
			continue
		}
		if !(da == DirUp && db == DirDown) && !(da == DirDown && db == DirUp) {
			t.Fatalf("link %d orientation illegal: %v/%v", li, da, db)
		}
	}
	for s := 0; s < topo.NumSwitches; s++ {
		sw := topology.SwitchID(s)
		if sw != rt.Root && len(rt.UpLinks(sw)) == 0 {
			t.Fatalf("non-root switch %d has no up port", s)
		}
	}
}

// checkPairwiseReachable asserts every ordered pair of switches has
// a legal up*/down* route (finite fresh-phase distance).
func checkPairwiseReachable(t *testing.T, rt *Routing) {
	t.Helper()
	S := rt.Topo.NumSwitches
	for s := 0; s < S; s++ {
		for d := 0; d < S; d++ {
			if s == d {
				continue
			}
			if rt.DistUp(topology.SwitchID(s), topology.SwitchID(d)) < 0 {
				t.Fatalf("no legal route %d -> %d", s, d)
			}
			ports, _ := rt.NextHops(topology.SwitchID(s), PhaseUp, topology.SwitchID(d), nil, nil)
			if len(ports) == 0 {
				t.Fatalf("NextHops(%d, up, %d) empty despite finite distance", s, d)
			}
		}
	}
}

// bruteDownReach recomputes one down port's reachability string the slow
// way: enter the peer switch, then close over down links only. It reads
// the orientation (Dirs) directly, never the link views it checks.
func bruteDownReach(rt *Routing, s topology.SwitchID, p int) map[topology.NodeID]bool {
	topo := rt.Topo
	out := map[topology.NodeID]bool{}
	seen := make([]bool, topo.NumSwitches)
	var walk func(q topology.SwitchID)
	walk = func(q topology.SwitchID) {
		if seen[q] {
			return
		}
		seen[q] = true
		for _, node := range topo.NodesAt(q) {
			out[node] = true
		}
		for port, dir := range rt.Dirs[q] {
			if dir == DirDown {
				walk(topo.Conn[q][port].Switch)
			}
		}
	}
	walk(topo.Conn[s][p].Switch)
	return out
}

// checkDownReachExact asserts every down port's reachability string
// holds exactly the brute-force down-only closure, as canonical runs.
func checkDownReachExact(t *testing.T, rt *Routing) {
	t.Helper()
	topo := rt.Topo
	for s := 0; s < topo.NumSwitches; s++ {
		sw := topology.SwitchID(s)
		for _, dl := range rt.DownLinks(sw) {
			want := destset.NewRuns(topo.NumNodes)
			for node := range bruteDownReach(rt, sw, dl.Port) {
				want.Add(int(node))
			}
			if got := rt.DownReach(sw, dl.Port); !got.Equal(want) {
				t.Fatalf("DownReach(%d, %d) is %v, brute force %v", s, dl.Port, got.Indices(), want.Indices())
			}
		}
	}
}

// checkMaskMatchesRebuild asserts the masked routing agrees exactly with
// routing computed fresh on a topology with the dead links truly removed.
func checkMaskMatchesRebuild(t *testing.T, masked *Routing, rebuilt *Routing) {
	t.Helper()
	topo := masked.Topo
	if masked.Root != rebuilt.Root {
		t.Fatalf("roots differ: masked %d, rebuilt %d", masked.Root, rebuilt.Root)
	}
	for s := 0; s < topo.NumSwitches; s++ {
		sw := topology.SwitchID(s)
		if masked.Level[s] != rebuilt.Level[s] {
			t.Fatalf("Level[%d]: masked %d, rebuilt %d", s, masked.Level[s], rebuilt.Level[s])
		}
		for p := 0; p < topo.PortsPerSwitch; p++ {
			if masked.Dirs[s][p] != rebuilt.Dirs[s][p] {
				t.Fatalf("Dirs[%d][%d]: masked %v, rebuilt %v", s, p, masked.Dirs[s][p], rebuilt.Dirs[s][p])
			}
			mr, rr := masked.DownReach(sw, p), rebuilt.DownReach(sw, p)
			if (mr == nil) != (rr == nil) {
				t.Fatalf("DownReach(%d, %d): nil mismatch", s, p)
			}
			if mr != nil && !mr.Equal(rr) {
				t.Fatalf("DownReach(%d, %d): masked %v, rebuilt %v", s, p, mr.Indices(), rr.Indices())
			}
		}
		if mc, rc := masked.Cover[s], rebuilt.Cover[s]; !mc.Equal(rc) {
			t.Fatalf("Cover[%d]: masked %v, rebuilt %v", s, mc.Indices(), rc.Indices())
		}
	}
}

// removalSequence drives one random sequence of non-partitioning link
// removals over topo, checking every property after every step.
func removalSequence(t *testing.T, topo *topology.Topology, seed uint64, steps int) {
	t.Helper()
	r := rng.New(seed)
	dead := make([]bool, len(topo.Links))
	var deadList []int
	rebuilt := topo
	for step := 0; step < steps; step++ {
		// Pick a random link whose removal keeps the graph connected.
		picked := -1
		for _, li := range r.Perm(len(topo.Links)) {
			if dead[li] {
				continue
			}
			dead[li] = true
			if topo.ConnectedExcluding(dead, nil) {
				picked = li
				break
			}
			dead[li] = false
		}
		if picked == -1 {
			return // pure tree remains; nothing left to remove
		}
		deadList = append(deadList, picked)
		// Rebuilt topology: remove the same link for real. Its index in
		// the rebuilt link list shifts down by the removed-before count.
		shifted := picked
		for _, q := range deadList[:len(deadList)-1] {
			if q < picked {
				shifted--
			}
		}
		var err error
		rebuilt, err = rebuilt.RemoveLink(shifted)
		if err != nil {
			t.Fatalf("step %d: RemoveLink(%d): %v", step, shifted, err)
		}
		masked, err := NewWithOptions(topo, Options{Root: -1, DeadLinks: append([]int(nil), deadList...)})
		if err != nil {
			t.Fatalf("step %d: masked routing: %v", step, err)
		}
		fresh, err := New(rebuilt)
		if err != nil {
			t.Fatalf("step %d: rebuilt routing: %v", step, err)
		}
		checkOrientationLegal(t, masked)
		checkPairwiseReachable(t, masked)
		checkDownReachExact(t, masked)
		checkMaskMatchesRebuild(t, masked, fresh)
	}
}

func TestRemovalSequenceProperties(t *testing.T) {
	topos, err := topology.GenerateFamily(topology.DefaultConfig(), 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	for ti, topo := range topos {
		for trial := 0; trial < 4; trial++ {
			removalSequence(t, topo, rng.Mix(77, uint64(ti), uint64(trial)), 3)
		}
	}
}

func FuzzRemovalSequence(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(42), uint64(1))
	f.Add(uint64(1998), uint64(2))
	f.Add(uint64(0), uint64(3))
	topos, err := topology.GenerateFamily(topology.DefaultConfig(), 4, 123)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64, pick uint64) {
		removalSequence(t, topos[pick%uint64(len(topos))], seed, 4)
	})
}
