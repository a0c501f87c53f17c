package experiment

import (
	"bytes"
	"testing"

	"mcastsim/internal/obs"
)

// obsRun executes one experiment with a fresh sink and returns the
// serialized telemetry stream.
func obsRun(t *testing.T, run Runner, workers int) []byte {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg.Obs = &ObsSink{}
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
	bundles := cfg.Obs.Bundles()
	if len(bundles) == 0 {
		t.Fatal("experiment produced no telemetry bundles")
	}
	for _, b := range bundles {
		if len(b.Snapshots) == 0 {
			t.Fatalf("cell %q sampled no snapshots", b.Cell)
		}
	}
	return obsJSONL(t, cfg.Obs)
}

// obsJSONL serializes a sink's bundles the way -obs-out writes them.
func obsJSONL(t *testing.T, sink *ObsSink) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, sink.Bundles()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObsDeterministicAcrossWorkers extends the harness determinism
// contract to telemetry: the serialized bundle stream must be
// byte-identical whether cells run serially or on 8 workers.
func TestObsDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		id  string
		run Runner
	}{
		{"fig6", Fig6EffectOfR},
		{"fig9", Fig9LoadVsR},
	}
	for _, c := range cases {
		c := c
		t.Run(c.id, func(t *testing.T) {
			serial := obsRun(t, c.run, 1)
			parallel := obsRun(t, c.run, 8)
			if !bytes.Equal(serial, parallel) {
				t.Fatal("telemetry stream differs between workers=1 and workers=8")
			}
		})
	}
}

// TestObsDisabledByDefault pins the opt-in contract: a Config without a
// sink must run every cell with a nil recorder and commit no bundle, so
// the disabled path stays allocation- and event-free.
func TestObsDisabledByDefault(t *testing.T) {
	var cfg Config
	if _, err := runCells(cfg, 3, func(i int, cc *cellCtx) (int, error) {
		if rec := cc.recorder("any"); rec != nil {
			t.Error("nil sink produced a recorder")
		}
		if b := cc.bundle(); b != nil {
			t.Errorf("nil sink produced bundle %q", b.Cell)
		}
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestObsTablesUnchanged pins non-interference at the result level: the
// rendered experiment tables are identical with and without telemetry.
func TestObsTablesUnchanged(t *testing.T) {
	plain := testConfig()
	pt, err := Fig6EffectOfR(plain)
	if err != nil {
		t.Fatal(err)
	}
	observed := testConfig()
	observed.Obs = &ObsSink{Config: obs.Config{Every: 256}}
	ot, err := Fig6EffectOfR(observed)
	if err != nil {
		t.Fatal(err)
	}
	if renderTables(t, pt) != renderTables(t, ot) {
		t.Fatal("attaching telemetry changed experiment results")
	}
}
