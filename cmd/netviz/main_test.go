package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden routing report")

// routingGolden is the fixture's full -routing report: levels, parents,
// orientations, every down port's 0/1 reachability string and each
// switch's cover count.
const routingGolden = "testdata/routing_report.txt"

// fixtureText renders an 8-switch generated topology in interchange format.
func fixtureText(t *testing.T) string {
	t.Helper()
	cfg := topology.Config{Switches: 8, PortsPerSwitch: 8, Nodes: 32, ExtraLinksPerSwitch: -1}
	topo, err := topology.Generate(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := topology.WriteText(&buf, topo); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDOTExport smokes the default DOT path on stdin input.
func TestDOTExport(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, strings.NewReader(fixtureText(t)), &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	dot := out.String()
	if len(dot) == 0 {
		t.Fatal("empty DOT output")
	}
	if !strings.Contains(dot, "graph") || !strings.Contains(dot, "--") {
		t.Fatalf("output does not look like Graphviz DOT:\n%s", dot)
	}
}

// TestRoutingReport compares the fixture's -routing report byte for byte
// against testdata/routing_report.txt.
func TestRoutingReport(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-routing"}, strings.NewReader(fixtureText(t)), &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := out.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routingGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(routingGolden)
	if err != nil {
		t.Fatalf("golden report missing (run with -update): %v", err)
	}
	if rep != string(want) {
		t.Fatalf("routing report diverged from %s:\n%s\nwant:\n%s", routingGolden, rep, want)
	}
}

// TestBadInput checks parse failures surface as errors.
func TestBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, strings.NewReader("not a topology\n"), &out, &errb); err == nil {
		t.Fatal("expected an error for malformed input")
	}
}
