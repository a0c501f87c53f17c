package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcastsim/internal/topology"
)

// TestGenerateRoundTrip smokes the single-topology path: generate, parse
// the emitted text back, and check the reload matches the original.
func TestGenerateRoundTrip(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-switches", "8", "-ports", "8", "-nodes", "32", "-seed", "7"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	topo, err := topology.ReadText(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("reload emitted topology: %v", err)
	}
	if topo.NumSwitches != 8 || topo.NumNodes != 32 {
		t.Fatalf("reloaded %d switches / %d nodes, want 8 / 32", topo.NumSwitches, topo.NumNodes)
	}
	var out2 bytes.Buffer
	if err := topology.WriteText(&out2, topo); err != nil {
		t.Fatal(err)
	}
	if out.String() != out2.String() {
		t.Fatal("serialize -> reload -> serialize is not a fixed point")
	}
}

// TestFamilyWritesFiles smokes the -family path into a temp directory.
func TestFamilyWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	if err := run([]string{"-family", "3", "-seed", "1998", "-dir", dir}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 3; i++ {
		name := filepath.Join(dir, "topo_00"+string(rune('0'+i))+".topo")
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("family member missing: %v", err)
		}
		if _, err := topology.ReadText(bytes.NewReader(data)); err != nil {
			t.Fatalf("family member %d unparseable: %v", i, err)
		}
	}
	if !strings.Contains(errb.String(), "wrote") {
		t.Fatalf("expected progress lines on stderr, got %q", errb.String())
	}
}

// TestBadFlags checks flag errors surface as errors, not os.Exit.
func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-switches", "banana"}, &out, &errb); err == nil {
		t.Fatal("expected an error for a malformed flag")
	}
}

// TestPortsBeyondFileWidth: a width the topology file format refuses
// fails up front, in both modes, and writes nothing.
func TestPortsBeyondFileWidth(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-switches", "4", "-ports", "300", "-nodes", "8", "-seed", "1"}, &out, &errb); err == nil {
		t.Fatal("-ports 300 accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("refused run wrote %d bytes to stdout", out.Len())
	}
	dir := filepath.Join(t.TempDir(), "family")
	if err := run([]string{"-family", "2", "-ports", "300", "-dir", dir}, &out, &errb); err == nil {
		t.Fatal("-family with -ports 300 accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused -family run left %s behind (stat: %v)", dir, err)
	}
}
