package updown

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
)

// TestVerifyCatchesIllegalPairs breaks only the pairwise-reachability
// invariant: three switches whose up ports form a cycle that never
// reaches the root, with every node on the root. Each non-root switch
// keeps an up port, the root has none and covers every node, so only
// the pairwise sweep can refuse the state.
func TestVerifyCatchesIllegalPairs(t *testing.T) {
	// Root 0 -- 1; 1 -> 2 -> 3 -> 1 is the up cycle.
	topo, err := topology.Build(4, 4,
		[][4]int{{0, 0, 1, 0}, {1, 1, 2, 0}, {2, 1, 3, 0}, {3, 1, 1, 2}},
		[][2]int{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		s, p int
		dir  Dir
	}{
		{0, 0, DirDown}, {1, 0, DirNone}, // 1 cannot climb to the root
		{1, 1, DirUp}, {2, 0, DirDown},
		{2, 1, DirUp}, {3, 0, DirDown},
		{3, 1, DirUp}, {1, 2, DirDown},
	} {
		r.Dirs[d.s][d.p] = d.dir
	}
	r.buildLinkViews()
	if got := r.Cover[r.Root].Count(); got != topo.NumNodes {
		t.Fatalf("root covers %d of %d nodes; the fixture must break only pairwise reachability", got, topo.NumNodes)
	}
	err = r.verify()
	if err == nil || !strings.Contains(err.Error(), "no legal route") {
		t.Fatalf("verify = %v, want a \"no legal route\" error", err)
	}
}

// TestVerifyPublishesNoRows: construction checks every pair without
// keeping a distance row, and the routing queries still compute and
// cache the rows they read, one per destination.
func TestVerifyPublishesNoRows(t *testing.T) {
	for _, r := range family(t, topology.DefaultConfig(), 3, 91) {
		cached := func() (out []int) {
			for d := range r.dist {
				if r.dist[d].Load() != nil {
					out = append(out, d)
				}
			}
			return out
		}
		if got := cached(); len(got) != 0 {
			t.Fatalf("New left %d distance rows cached: %v", len(got), got)
		}
		last := topology.SwitchID(r.Topo.NumSwitches - 1)
		r.DistUp(0, 2)
		r.DistDown(last, 2)
		r.NextHops(0, PhaseUp, last, nil, nil)
		if got, want := cached(), []int{2, int(last)}; !slices.Equal(got, want) {
			t.Fatalf("rows cached after DistUp/DistDown/NextHops: %v, want %v", got, want)
		}
	}
}

// TestVerifyMemoryLinear: the pairwise sweep of a 768-switch network
// allocates O(S) bytes. Keeping its rows would cost 8·S² bytes (4.7 MB).
func TestVerifyMemoryLinear(t *testing.T) {
	topo, err := topology.Generate(topology.Config{Switches: 768, PortsPerSwitch: 8, Nodes: 256, ExtraLinksPerSwitch: -1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := r.verify(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	if limit := uint64(64 * topo.NumSwitches); best > limit {
		t.Fatalf("verify allocates %d B on %d switches, want at most %d", best, topo.NumSwitches, limit)
	}
}

// TestLinkViewsMatchDirs: the shared per-switch views list exactly the
// oriented ports, in port order, with their peers and reachability.
func TestLinkViewsMatchDirs(t *testing.T) {
	for _, r := range family(t, topology.DefaultConfig(), 4, 5) {
		topo := r.Topo
		into := make([][]topology.SwitchID, topo.NumSwitches)
		for s := range topology.SwitchID(topo.NumSwitches) {
			var ups []UpLink
			var downs []int
			for p, d := range r.Dirs[s] {
				q := topo.Conn[s][p].Switch
				switch d {
				case DirUp:
					ups = append(ups, UpLink{Port: p, Peer: q})
					into[q] = append(into[q], s)
				case DirDown:
					downs = append(downs, p)
				}
			}
			if !slices.Equal(r.UpLinks(s), ups) {
				t.Fatalf("UpLinks(%d) = %v, want %v", s, r.UpLinks(s), ups)
			}
			var got []int
			for _, dl := range r.DownLinks(s) {
				if dl.Reach == nil || dl.Reach != r.DownReach(s, dl.Port) {
					t.Fatalf("DownLinks(%d) port %d carries the wrong string", s, dl.Port)
				}
				got = append(got, dl.Port)
			}
			if !slices.Equal(got, downs) {
				t.Fatalf("DownLinks(%d) ports = %v, want %v", s, got, downs)
			}
		}
		for q := range topology.SwitchID(topo.NumSwitches) {
			if !slices.Equal(r.UpInto(q), into[q]) {
				t.Fatalf("UpInto(%d) = %v, want %v", q, r.UpInto(q), into[q])
			}
		}
	}
}

// TestConcurrentRowsAgree: now that construction publishes no rows,
// routing goroutines sharing one Routing (the parallel harness's
// workers) race to build each row on first use. Every goroutine must
// read the distances a fresh serial Routing reads.
func TestConcurrentRowsAgree(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	S := topology.SwitchID(topo.NumSwitches)
	want := make([]int, S*S)
	for i := range S * S {
		want[i] = ref.DistUp(i%S, i/S)
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := range S * S {
				s, d := (i+topology.SwitchID(g))%S, i/S
				if got, want := shared.DistUp(s, d), want[int(d)*int(S)+int(s)]; got != want {
					errs <- fmt.Errorf("goroutine %d: DistUp(%d, %d) = %d, want %d", g, s, d, got, want)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
