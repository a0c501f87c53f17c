package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/experiment"
	"mcastsim/internal/obs"
)

// crashSpecs are two specs whose jobs once panicked inside the job
// goroutine and took the whole server down: a topology count that
// overflows the family's allocation, and a sampling cadence that
// overflows the event clock.
var crashSpecs = []string{
	`{"experiment":"fig6","topologies":4611686018427387904}`,
	`{"experiment":"fig9","obs":true,"obs_every":9223372036854775807,"topologies":1,"probes":1}`,
}

// TestOutOfRangeSpecsRefused: a spec outside the bounds is a 400 with a
// JSON error that creates no job and takes no job ID, and the server
// keeps answering.
func TestOutOfRangeSpecsRefused(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := append([]string{
		`{"experiment":"fig6","topologies":-1}`,
		`{"experiment":"fig6","probes":10001}`,
		`{"experiment":"fig6","probes":-3}`,
		`{"experiment":"fig6","workers":257}`,
		`{"experiment":"fig6","workers":-1}`,
		`{"experiment":"fig6","obs":true,"obs_every":1099511627777}`,
		`{"experiment":"fig6","obs_every":-1}`,
	}, crashSpecs...)
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]string
		decodeErr := json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decodeErr != nil || got["error"] == "" {
			t.Fatalf("submit %s: %d %v (decode error %v), want 400 with an error", body, resp.StatusCode, got, decodeErr)
		}
	}
	s.mu.Lock()
	jobs, nextID := len(s.jobs), s.nextID
	s.mu.Unlock()
	if jobs != 0 || nextID != 0 {
		t.Fatalf("refused specs left %d jobs and next ID %d", jobs, nextID)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after refused specs: %d", resp.StatusCode)
	}
	// The bounds themselves are accepted.
	edge := `{"experiment":"fig6","topologies":1000,"probes":10000,"workers":256,"obs_every":1099511627776}`
	if _, _, err := decodeSpec([]byte(edge)); err != nil {
		t.Fatalf("spec at the bounds refused: %v", err)
	}
}

// FuzzSpec drives arbitrary bodies through spec decoding, validation and
// the config mapping (no experiment runs). A body is either refused with
// a *SpecError or maps to a config whose grid, pool and cadence are in
// bounds.
func FuzzSpec(f *testing.F) {
	for _, s := range crashSpecs {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"experiment":"fig6","probes":2,"topologies":1,"workers":2,"obs":true,"obs_every":512}`))
	legacy, err := os.ReadFile("testdata/legacy_shards_spec.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, entry, err := decodeSpec(body)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("decodeSpec error %v is a %T, want *SpecError", err, err)
			}
			return
		}
		if _, lerr := experiment.Lookup(entry.ID); lerr != nil || entry.ID != sp.Experiment {
			t.Fatalf("accepted spec names experiment %q, entry %q (%v)", sp.Experiment, entry.ID, lerr)
		}
		cfg := sp.config()
		preset := experiment.Quick()
		if sp.Full {
			preset = experiment.Full()
		}
		if cfg.Topologies < 1 || cfg.Topologies > max(maxTopologies, preset.Topologies) ||
			cfg.LoadTopologies < 1 || cfg.LoadTopologies > cfg.Topologies {
			t.Fatalf("spec %s maps to topologies %d, load topologies %d", body, cfg.Topologies, cfg.LoadTopologies)
		}
		if cfg.Probes < 1 || cfg.Probes > max(maxProbes, preset.Probes) {
			t.Fatalf("spec %s maps to %d probes", body, cfg.Probes)
		}
		if cfg.Workers < 0 || cfg.Workers > maxWorkers {
			t.Fatalf("spec %s maps to %d workers", body, cfg.Workers)
		}
		if every := event.Time(sp.ObsEvery); every < 0 || every > obs.MaxEvery {
			t.Fatalf("spec %s maps to sampling cadence %d", body, every)
		}
	})
}
