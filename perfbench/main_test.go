package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestTinySmoke runs every workload of BENCHMARK.json at test size,
// untraced and traced, and checks that each declared metric is emitted
// with its declared unit and that no op fails.
func TestTinySmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := measure(runConfig{workload: w.Name, seed: defaultSeed, trace: trace,
				traceDir: t.TempDir(), tiny: true, expect: map[string]string{}})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestWrongDigestFails shows that an op whose output digest differs from
// the recorded one counts as failed.
func TestWrongDigestFails(t *testing.T) {
	rep, err := measure(runConfig{workload: "tree-storm", seed: defaultSeed, tiny: true,
		expect: map[string]string{"tree-storm": "0000000000000000"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Correct {
		t.Fatalf("wrong expected digest: failed=%d correct=%v", rep.Failed, rep.Correct)
	}
	if ok := rep.Metrics["ok_frac"].Value; ok >= 1 {
		t.Fatalf("ok_frac = %v with every op failing its digest", ok)
	}
}
