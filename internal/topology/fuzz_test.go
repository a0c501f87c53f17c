package topology

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"mcastsim/internal/rng"
)

// TestReadTextNeverPanics feeds arbitrary byte soup to the parser: it must
// return an error or a valid topology, never panic.
func TestReadTextNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		topo, err := ReadText(strings.NewReader(string(raw)))
		if err == nil && topo.Validate() != nil {
			return false // parsed successfully but invalid
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestReadTextMutatedValid corrupts single tokens of a valid serialization;
// the parser must never panic and never accept an inconsistent topology.
func TestReadTextMutatedValid(t *testing.T) {
	topo, err := Generate(DefaultConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteText(&sb, topo); err != nil {
		t.Fatal(err)
	}
	base := sb.String()
	r := rng.New(6)
	for trial := 0; trial < 300; trial++ {
		b := []byte(base)
		// Flip a random byte to a random printable character.
		i := r.Intn(len(b))
		b[i] = byte('0' + r.Intn(75))
		func() {
			defer func() {
				if recover() != nil {
					t.Fatalf("panic on mutation %d", trial)
				}
			}()
			got, err := ReadText(strings.NewReader(string(b)))
			if err == nil {
				if vErr := got.Validate(); vErr != nil {
					t.Fatalf("mutation %d accepted an invalid topology: %v", trial, vErr)
				}
			}
		}()
	}
}

// TestGenerateFeasibilityBoundary probes configurations right at the port
// budget.
func TestGenerateFeasibilityBoundary(t *testing.T) {
	// S switches x P ports: spanning tree takes 2(S-1) ends; nodes fill
	// the rest exactly.
	for _, c := range []struct{ s, p int }{{2, 4}, {4, 4}, {8, 8}, {3, 3}} {
		maxNodes := c.s*c.p - 2*(c.s-1)
		cfg := Config{Switches: c.s, PortsPerSwitch: c.p, Nodes: maxNodes, ExtraLinksPerSwitch: 0}
		topo, err := Generate(cfg, rng.New(9))
		if err != nil {
			t.Fatalf("boundary config %+v rejected: %v", cfg, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("boundary config %+v invalid: %v", cfg, err)
		}
		cfg.Nodes++
		if _, err := Generate(cfg, rng.New(9)); err == nil {
			t.Fatalf("over-boundary config %+v accepted", cfg)
		}
	}
}

// FuzzReadText opens arbitrary topology files: ReadText must return an
// error or a topology that validates, never panic, and an accepted
// topology must survive a WriteText/ReadText round trip unchanged. The
// seeds include headers whose port count would size a huge port table.
func FuzzReadText(f *testing.F) {
	topo, err := Generate(DefaultConfig(), rng.New(5))
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteText(&valid, topo); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("topology 1 4611686018427387904 0\n"))
	f.Add([]byte("topology 2 1000000 0\nlink 0 0 1 0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadText(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted an invalid topology: %v", err)
		}
		var once, twice bytes.Buffer
		if err := WriteText(&once, got); err != nil {
			t.Fatal(err)
		}
		back, err := ReadText(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("rereading the written topology: %v", err)
		}
		if err := WriteText(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("WriteText/ReadText round trip changed the topology")
		}
	})
}
