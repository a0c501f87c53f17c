package wire

import (
	"testing"

	"mcastsim/internal/bitset"
	"mcastsim/internal/destset"
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

func defaultSizes() Sizes { return Sizes{Nodes: 32, Switches: 8, PortsPerSwitch: 8} }

func routed(t testing.TB, seed uint64) (*topology.Topology, *updown.Routing) {
	t.Helper()
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return topo, rt
}

func TestSizesValidate(t *testing.T) {
	if err := defaultSizes().Validate(); err != nil {
		t.Fatal(err)
	}
	// Sizes past the paper's 1-byte id space are valid now that the id
	// field widens; the codec caps at the 3-byte space.
	ok := []Sizes{
		{Nodes: 250, Switches: 10, PortsPerSwitch: 8},
		{Nodes: 8, Switches: 2, PortsPerSwitch: 65},
		{Nodes: 65000, Switches: 536, PortsPerSwitch: 256},
		{Nodes: 65000, Switches: 537, PortsPerSwitch: 8},
		{Nodes: 1<<24 - 1000, Switches: 1000, PortsPerSwitch: 8},
	}
	for i, z := range ok {
		if err := z.Validate(); err != nil {
			t.Errorf("case %d rejected: %v", i, err)
		}
	}
	bad := []Sizes{
		{Nodes: 0, Switches: 1, PortsPerSwitch: 1},
		{Nodes: 1<<24 - 1000, Switches: 1001, PortsPerSwitch: 8},
		{Nodes: 8, Switches: 2, PortsPerSwitch: 257},
	}
	for i, z := range bad {
		if z.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestUnicastRoundTrip(t *testing.T) {
	z := defaultSizes()
	for d := 0; d < z.Nodes; d++ {
		b, err := EncodeUnicast(z, topology.NodeID(d))
		if err != nil {
			t.Fatal(err)
		}
		if want := sim.UnicastHeaderFlits(z.Nodes, z.Switches); len(b) != want {
			t.Fatalf("unicast header %d bytes, sim says %d flits", len(b), want)
		}
		got, err := DecodeUnicast(z, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != topology.NodeID(d) {
			t.Fatalf("round trip %d -> %d", d, got)
		}
	}
}

func TestUnicastErrors(t *testing.T) {
	z := defaultSizes()
	if _, err := EncodeUnicast(z, 99); err == nil {
		t.Fatal("out-of-range dest encoded")
	}
	if _, err := DecodeUnicast(z, []byte{TagTree, 0}); err == nil {
		t.Fatal("wrong tag decoded")
	}
	if _, err := DecodeUnicast(z, []byte{TagUnicast}); err == nil {
		t.Fatal("short header decoded")
	}
	if _, err := DecodeUnicast(z, []byte{TagUnicast, 200}); err == nil {
		t.Fatal("out-of-range payload decoded")
	}
}

func TestTreeRoundTripRandom(t *testing.T) {
	z := defaultSizes()
	r := rng.New(1)
	for trial := 0; trial < 100; trial++ {
		set := bitset.New(z.Nodes)
		k := 1 + r.Intn(z.Nodes)
		for _, v := range r.Sample(z.Nodes, k) {
			set.Add(v)
		}
		b, err := EncodeTree(z, set)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != sim.TreeHeaderFlits(z.Nodes) {
			t.Fatalf("tree header %d bytes, sim says %d flits", len(b), sim.TreeHeaderFlits(z.Nodes))
		}
		got, err := DecodeTree(z, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(set) {
			t.Fatalf("tree round trip changed the set")
		}
	}
}

func TestTreeRejectsStrayBits(t *testing.T) {
	// 33 nodes -> 5 mask bytes with 7 spare bits that must stay zero.
	z := Sizes{Nodes: 33, Switches: 8, PortsPerSwitch: 8}
	set := bitset.FromIndices(33, []int{0})
	b, err := EncodeTree(z, set)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] |= 0x80 // a bit beyond node 32
	if _, err := DecodeTree(z, b); err == nil {
		t.Fatal("stray bit accepted")
	}
}

func TestTreeErrors(t *testing.T) {
	z := defaultSizes()
	if _, err := EncodeTree(z, bitset.New(32)); err == nil {
		t.Fatal("empty set encoded")
	}
	if _, err := EncodeTree(z, bitset.FromIndices(16, []int{1})); err == nil {
		t.Fatal("wrong universe encoded")
	}
	if _, err := DecodeTree(z, []byte{TagTree, 0, 0, 0, 0}); err == nil {
		t.Fatal("empty decoded set accepted")
	}
}

func TestPathRoundTripPlannerOutput(t *testing.T) {
	// Round-trip every worm the real planner produces across random
	// topologies and destination sets — codec and planner must agree.
	for seed := uint64(1); seed <= 5; seed++ {
		topo, rt := routed(t, seed)
		r := rng.New(seed * 17)
		for trial := 0; trial < 10; trial++ {
			picks := r.Sample(topo.NumNodes, 17)
			src := topology.NodeID(picks[0])
			dests := make([]topology.NodeID, 16)
			for i, v := range picks[1:] {
				dests[i] = topology.NodeID(v)
			}
			res, err := pathworm.New().Cover(rt, src, dests)
			if err != nil {
				t.Fatal(err)
			}
			for _, specs := range res.Sends {
				for _, w := range specs {
					b, err := EncodePath(topo, w.Path)
					if err != nil {
						t.Fatalf("encode: %v", err)
					}
					want := sim.PathHeaderFlits(len(w.Path), topo.PortsPerSwitch, topo.NumNodes, topo.NumSwitches)
					if len(b) != want {
						t.Fatalf("path header %d bytes, sim says %d flits", len(b), want)
					}
					got, err := DecodePath(topo, b)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if len(got) != len(w.Path) {
						t.Fatalf("segment count changed: %d vs %d", len(got), len(w.Path))
					}
					for i := range got {
						if got[i].Switch != w.Path[i].Switch || got[i].NextPort != w.Path[i].NextPort {
							t.Fatalf("segment %d changed: %+v vs %+v", i, got[i], w.Path[i])
						}
						if len(got[i].Drops) != len(w.Path[i].Drops) {
							t.Fatalf("segment %d drops changed", i)
						}
						seen := map[topology.NodeID]bool{}
						for _, d := range got[i].Drops {
							seen[d] = true
						}
						for _, d := range w.Path[i].Drops {
							if !seen[d] {
								t.Fatalf("segment %d lost drop %d", i, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestPathErrors(t *testing.T) {
	topo, _ := routed(t, 9)
	if _, err := EncodePath(topo, nil); err == nil {
		t.Fatal("empty path encoded")
	}
	// A drop not attached to the stop switch.
	var foreign topology.NodeID
	for n := 0; n < topo.NumNodes; n++ {
		if topo.NodeSwitch[n] != 0 {
			foreign = topology.NodeID(n)
			break
		}
	}
	if _, err := EncodePath(topo, []sim.PathSeg{{Switch: 0, Drops: []topology.NodeID{foreign}, NextPort: -1}}); err == nil {
		t.Fatal("foreign drop encoded")
	}
	if _, err := DecodePath(topo, []byte{TagPath, 0}); err == nil {
		t.Fatal("truncated path decoded")
	}
	if _, err := DecodePath(topo, []byte{TagUnicast, 0, 0}); err == nil {
		t.Fatal("wrong tag decoded")
	}
}

func TestPathDecodeRejectsTwoContinuations(t *testing.T) {
	topo, _ := routed(t, 10)
	// Find a switch with two switch ports; set both bits.
	for s := 0; s < topo.NumSwitches; s++ {
		var swPorts []int
		for p := 0; p < topo.PortsPerSwitch; p++ {
			if topo.Conn[s][p].Kind == topology.ToSwitch {
				swPorts = append(swPorts, p)
			}
		}
		if len(swPorts) < 2 {
			continue
		}
		b := []byte{TagPath, byte(topo.NumNodes + s), 0}
		b[2] |= 1 << uint(swPorts[0])
		b[2] |= 1 << uint(swPorts[1])
		// Must have 1+maskBytes per segment: ports=8 -> 1 mask byte. This
		// is a final segment with two continuations -> both error paths
		// (double continuation or final-with-continuation) are fine.
		if _, err := DecodePath(topo, b); err == nil {
			t.Fatal("double continuation accepted")
		}
		return
	}
	t.Skip("no switch with two switch ports")
}

func TestPathFuzzDecode(t *testing.T) {
	topo, _ := routed(t, 11)
	r := rng.New(12)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		b[0] = TagPath
		// Must never panic; errors are fine.
		_, _ = DecodePath(topo, b)
	}
}

// wideTopo builds a >256-endpoint system (fat-tree, 512 hosts + 20
// switches) so the 2-byte id field is exercised end to end.
func wideTopo(t *testing.T) (*topology.Topology, *updown.Routing) {
	t.Helper()
	topo, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 4, EdgePerPod: 4, AggPerPod: 2, CoreUplinksPerAgg: 2, HostsPerEdge: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return topo, rt
}

// TestUnicastRoundTripWide exercises the widened id field end to end:
// 2 big-endian bytes on wideTopo, 3 at the L-tier fat-tree's shape.
func TestUnicastRoundTripWide(t *testing.T) {
	topo, _ := wideTopo(t)
	for _, c := range []struct {
		z   Sizes
		ids int
	}{
		{Sizes{Nodes: topo.NumNodes, Switches: topo.NumSwitches, PortsPerSwitch: topo.PortsPerSwitch}, 2},
		{Sizes{Nodes: 101376, Switches: 1088, PortsPerSwitch: 32}, 3},
	} {
		z := c.z
		want := sim.UnicastHeaderFlits(z.Nodes, z.Switches)
		if want != 1+c.ids {
			t.Fatalf("%d endpoints: sim sizes the unicast header at %d flits, want %d", z.Nodes+z.Switches, want, 1+c.ids)
		}
		for _, d := range []int{0, 1, 255, 256, 257, 65535, 65536, 0x012345, z.Nodes - 1} {
			if d >= z.Nodes {
				continue
			}
			b, err := EncodeUnicast(z, topology.NodeID(d))
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != want {
				t.Fatalf("wide unicast header %d bytes, sim says %d flits", len(b), want)
			}
			id := 0
			for _, x := range b[1:] {
				id = id<<8 | int(x)
			}
			if id != d {
				t.Fatalf("id %d encoded as % x, not big-endian", d, b[1:])
			}
			got, err := DecodeUnicast(z, b)
			if err != nil {
				t.Fatal(err)
			}
			if int(got) != d {
				t.Fatalf("round trip %d -> %d", d, got)
			}
		}
	}
}

func TestPathRoundTripWide(t *testing.T) {
	topo, rt := wideTopo(t)
	r := rng.New(77)
	sch := pathworm.New()
	p := sim.DefaultParams()
	for trial := 0; trial < 20; trial++ {
		src := topology.NodeID(r.Intn(topo.NumNodes))
		seen := map[topology.NodeID]bool{src: true}
		var dests []topology.NodeID
		for len(dests) < 8 {
			d := topology.NodeID(r.Intn(topo.NumNodes))
			if !seen[d] {
				seen[d] = true
				dests = append(dests, d)
			}
		}
		plan, err := sch.Plan(rt, p, src, dests, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, specs := range plan.HostSends {
			for i := range specs {
				if specs[i].Kind != sim.WormPath {
					continue
				}
				b, err := EncodePath(topo, specs[i].Path)
				if err != nil {
					t.Fatal(err)
				}
				want := sim.PathHeaderFlits(len(specs[i].Path), topo.PortsPerSwitch, topo.NumNodes, topo.NumSwitches)
				if len(b) != want {
					t.Fatalf("wide path header %d bytes, sim says %d flits", len(b), want)
				}
				segs, err := DecodePath(topo, b)
				if err != nil {
					t.Fatal(err)
				}
				if len(segs) != len(specs[i].Path) {
					t.Fatalf("decoded %d segments, want %d", len(segs), len(specs[i].Path))
				}
				for j, seg := range segs {
					orig := specs[i].Path[j]
					if seg.Switch != orig.Switch || seg.NextPort != orig.NextPort || len(seg.Drops) != len(orig.Drops) {
						t.Fatalf("segment %d mismatch: got %+v want %+v", j, seg, orig)
					}
				}
			}
		}
	}
}

func TestTreeIvalRoundTripRandom(t *testing.T) {
	topo, _ := wideTopo(t)
	z := Sizes{Nodes: topo.NumNodes, Switches: topo.NumSwitches, PortsPerSwitch: topo.PortsPerSwitch}
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		set := destset.NewRuns(z.Nodes)
		// Mix of clustered runs and scattered singletons.
		for runs := 1 + r.Intn(5); runs > 0; runs-- {
			lo := r.Intn(z.Nodes)
			hi := lo + r.Intn(40)
			if hi >= z.Nodes {
				hi = z.Nodes - 1
			}
			for i := lo; i <= hi; i++ {
				set.Add(i)
			}
		}
		for k := r.Intn(6); k > 0; k-- {
			set.Add(r.Intn(z.Nodes))
		}
		b, err := EncodeTreeIval(z, set)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != sim.TreeIvalHeaderFlits(set) {
			t.Fatalf("tree-ival header %d bytes, sim says %d flits", len(b), sim.TreeIvalHeaderFlits(set))
		}
		got, err := DecodeTreeIval(z, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(set) {
			t.Fatalf("round trip mismatch: %v -> %v", set.Indices(), got.Indices())
		}
	}
}

func TestTreeIvalFuzzDecode(t *testing.T) {
	z := Sizes{Nodes: 512, Switches: 20, PortsPerSwitch: 20}
	r := rng.New(100)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(16)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		b[0] = TagTreeIval
		// Must never panic; errors are fine. When decode succeeds the
		// result must re-encode to the same bytes (canonical form).
		set, err := DecodeTreeIval(z, b)
		if err != nil {
			continue
		}
		back, err := EncodeTreeIval(z, set)
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != string(b) {
			t.Fatalf("non-canonical decode: % x -> % x", b, back)
		}
	}
}

func TestTreeIvalErrors(t *testing.T) {
	z := defaultSizes()
	if _, err := EncodeTreeIval(z, destset.NewRuns(z.Nodes)); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := EncodeTreeIval(z, destset.NewRuns(z.Nodes+1)); err == nil {
		t.Error("wrong universe accepted")
	}
	// {5} is 04 01 05 00; each of these spells one of its fields with a
	// needless continuation byte, which a canonical decoder refuses.
	for _, b := range [][]byte{
		{TagTreeIval, 0x81, 0x00, 0x05, 0x00}, // run count
		{TagTreeIval, 0x01, 0x85, 0x00, 0x00}, // first lo
		{TagTreeIval, 0x01, 0x05, 0x80, 0x00}, // run length
	} {
		if got, err := DecodeTreeIval(z, b); err == nil {
			t.Errorf("overlong varint in % x decoded as %v", b, got.Indices())
		}
	}
	set := destset.NewRuns(z.Nodes)
	set.Add(3)
	b, err := EncodeTreeIval(z, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTreeIval(z, b[:1]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := DecodeTreeIval(z, append(b, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	b[0] = TagTree
	if _, err := DecodeTreeIval(z, b); err == nil {
		t.Error("wrong tag accepted")
	}
}

// TestPlanHeaderFlitsMatchesWire encodes every worm one packet of a plan
// injects (one unicast per NI-tree edge, otherwise each host-send spec)
// and requires the byte total to equal sim.PlanHeaderFlits, for every
// scheme under both destination codings, at 1- and 2-byte id widths.
func TestPlanHeaderFlitsMatchesWire(t *testing.T) {
	schemes := []mcast.Scheme{binomial.New(), kbinomial.New(), treeworm.New(), pathworm.New()}
	p := sim.DefaultParams()
	for ti, build := range []func(*testing.T) (*topology.Topology, *updown.Routing){
		func(t *testing.T) (*topology.Topology, *updown.Routing) { return routed(t, 3) },
		wideTopo,
	} {
		topo, rt := build(t)
		z := Sizes{Nodes: topo.NumNodes, Switches: topo.NumSwitches, PortsPerSwitch: topo.PortsPerSwitch}
		r := rng.New(uint64(40 + ti))
		for trial := 0; trial < 8; trial++ {
			// Alternate scattered draws with one contiguous block, the
			// rack shape the interval coding compresses.
			picks := r.Sample(topo.NumNodes, 17)
			src := topology.NodeID(picks[0])
			var dests []topology.NodeID
			if trial%2 == 0 {
				for _, v := range picks[1:] {
					dests = append(dests, topology.NodeID(v))
				}
			} else {
				for v := r.Intn(topo.NumNodes - 24); len(dests) < 24; v++ {
					if topology.NodeID(v) != src {
						dests = append(dests, topology.NodeID(v))
					}
				}
			}
			for _, sch := range schemes {
				plan, err := sch.Plan(rt, p, src, dests, 128)
				if err != nil {
					t.Fatal(err)
				}
				for _, coding := range []sim.DestCoding{sim.HeaderFlat, sim.HeaderIval} {
					got := encodedBytes(t, topo, z, coding, plan)
					if want := sim.PlanHeaderFlits(topo, coding, plan); got != want {
						t.Fatalf("topo %d trial %d %s %v: wire encodes %d bytes, sim.PlanHeaderFlits says %d",
							ti, trial, sch.Name(), coding, got, want)
					}
				}
			}
		}
	}
}

// encodedBytes encodes every worm one packet of plan injects and returns
// the total header bytes.
func encodedBytes(t *testing.T, topo *topology.Topology, z Sizes, coding sim.DestCoding, plan *sim.Plan) int {
	t.Helper()
	total := 0
	add := func(b []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		total += len(b)
	}
	for _, kids := range plan.NITree {
		for _, d := range kids {
			add(EncodeUnicast(z, d))
		}
	}
	for _, specs := range plan.HostSends {
		for _, spec := range specs {
			switch spec.Kind {
			case sim.WormUnicast:
				add(EncodeUnicast(z, spec.Dest))
			case sim.WormTree:
				flat, runs := bitset.New(topo.NumNodes), destset.NewRuns(topo.NumNodes)
				for _, d := range spec.DestSet {
					flat.Add(int(d))
					runs.Add(int(d))
				}
				if coding == sim.HeaderIval {
					add(EncodeTreeIval(z, runs))
				} else {
					add(EncodeTree(z, flat))
				}
			case sim.WormPath:
				add(EncodePath(topo, spec.Path))
			}
		}
	}
	return total
}

// BenchmarkWireCodecs times each header codec on the paper's default
// system: an 8-way tree header in both codings, and the longest path
// worm of a 16-way MDP-LG cover.
func BenchmarkWireCodecs(b *testing.B) {
	topo, rt := routed(b, 1)
	z := Sizes{Nodes: topo.NumNodes, Switches: topo.NumSwitches, PortsPerSwitch: topo.PortsPerSwitch}
	idx := []int{1, 5, 9, 13, 17, 21, 25, 29}
	flat, runs := bitset.FromIndices(topo.NumNodes, idx), destset.NewRuns(topo.NumNodes)
	for _, i := range idx {
		runs.Add(i)
	}
	r := rng.New(2)
	picks := r.Sample(topo.NumNodes, 17)
	dests := make([]topology.NodeID, 16)
	for i, v := range picks[1:] {
		dests[i] = topology.NodeID(v)
	}
	res, err := pathworm.New().Cover(rt, topology.NodeID(picks[0]), dests)
	if err != nil {
		b.Fatal(err)
	}
	var segs []sim.PathSeg
	for _, specs := range res.Sends {
		for _, w := range specs {
			if len(w.Path) > len(segs) {
				segs = w.Path
			}
		}
	}
	treeHdr, _ := EncodeTree(z, flat)
	ivalHdr, _ := EncodeTreeIval(z, runs)
	pathHdr, _ := EncodePath(topo, segs)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"tree-encode", func() error { _, err := EncodeTree(z, flat); return err }},
		{"tree-decode", func() error { _, err := DecodeTree(z, treeHdr); return err }},
		{"tree-ival-encode", func() error { _, err := EncodeTreeIval(z, runs); return err }},
		{"tree-ival-decode", func() error { _, err := DecodeTreeIval(z, ivalHdr); return err }},
		{"path-encode", func() error { _, err := EncodePath(topo, segs); return err }},
		{"path-decode", func() error { _, err := DecodePath(topo, pathHdr); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
