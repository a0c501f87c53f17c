package experiment

// Golden tables and telemetry for every registered experiment: each
// experiment's rendered tables at goldenConfig, followed by the sha256
// of its -obs JSONL stream, must match testdata/golden_<id>.txt byte for
// byte. Any change to where cells sit, how they are seeded or labelled,
// or the order their results are reduced in shows up here. fig6 and
// fig9 also check that -workers 8 reproduces the serial output.
// scalesweep is left out: its tables carry wall-clock and heap cells.
//
// Regenerate (only on intended semantics changes):
//
//	go test ./internal/experiment -run TestGoldenTables -update

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden table files")

// goldenConfig is a reduced configuration: small enough for CI, large
// enough to exercise every scheme, several load points, and the
// cross-worker cell assembly.
func goldenConfig(workers int) Config {
	cfg := Quick()
	cfg.Topologies = 2
	cfg.LoadTopologies = 2
	cfg.Probes = 3
	cfg.Warmup, cfg.Measure, cfg.Drain = 2_000, 10_000, 8_000
	cfg.Loads = []float64{0.1, 0.3}
	cfg.LoadDegrees = []int{8}
	cfg.Workers = workers
	return cfg
}

// goldenOutput runs one experiment with telemetry on and returns its
// rendered tables followed by one line naming the sha256 and size of
// its telemetry stream as -obs-out writes it.
func goldenOutput(t *testing.T, run Runner, cfg Config) []byte {
	t.Helper()
	cfg.Obs = &ObsSink{}
	tables, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range tables {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	jsonl := obsJSONL(t, cfg.Obs)
	fmt.Fprintf(&buf, "obs jsonl: sha256 %x, %d bytes, %d bundles\n",
		sha256.Sum256(jsonl), len(jsonl), len(cfg.Obs.Bundles()))
	return buf.Bytes()
}

func TestGoldenTables(t *testing.T) {
	for _, e := range Registry() {
		if e.ID == "scalesweep" {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			got := goldenOutput(t, e.Run, goldenConfig(1))
			if e.ID == "fig6" || e.ID == "fig9" {
				if par := goldenOutput(t, e.Run, goldenConfig(8)); !bytes.Equal(got, par) {
					t.Fatalf("%s: workers=8 output differs from serial", e.ID)
				}
			}
			path := filepath.Join("testdata", "golden_"+e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("recorded %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output diverged from the recorded golden file:\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, got, want)
			}
		})
	}
}
