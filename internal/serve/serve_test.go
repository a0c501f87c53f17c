package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"mcastsim/internal/experiment"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Type string
	Data string // data lines rejoined with \n
}

// readSSE consumes an event stream to EOF (the stream handler closes
// after the done event).
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var (
		out  []sseEvent
		cur  sseEvent
		data []string
	)
	flush := func() {
		if cur.Type != "" {
			cur.Data = strings.Join(data, "\n")
			out = append(out, cur)
		}
		cur, data = sseEvent{}, nil
	}
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		}
	}
	flush()
	return out
}

func submit(t *testing.T, url string, spec JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	return submitJSON(t, url, body)
}

// submitJSON posts a raw JSON job spec and returns the job ID.
func submitJSON(t *testing.T, url string, body []byte) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, got)
	}
	return got["id"]
}

func stream(t *testing.T, url, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream", url, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return readSSE(t, sc)
}

func quickSpec() JobSpec {
	return JobSpec{Experiment: "fig6", Probes: 2, Topologies: 1, Workers: 2}
}

// TestSubmitStreamDone walks the happy path: submit, stream to
// completion, and check progress, tables, terminal state, and the
// status endpoints agree.
func TestSubmitStreamDone(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submit(t, ts.URL, quickSpec())
	events := stream(t, ts.URL, id)

	var progress, tables, done int
	var final map[string]string
	for _, ev := range events {
		switch ev.Type {
		case "progress":
			progress++
		case "table":
			tables++
			var tab map[string]string
			if err := json.Unmarshal([]byte(ev.Data), &tab); err != nil || tab["text"] == "" {
				t.Fatalf("bad table event %q: %v", ev.Data, err)
			}
		case "done":
			done++
			if err := json.Unmarshal([]byte(ev.Data), &final); err != nil {
				t.Fatal(err)
			}
		}
	}
	if progress == 0 || tables == 0 || done != 1 {
		t.Fatalf("events: %d progress, %d tables, %d done", progress, tables, done)
	}
	if final["state"] != StateDone {
		t.Fatalf("final state = %v", final)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.DoneCells != st.TotalCells || st.TotalCells == 0 {
		t.Fatalf("status = %+v", st)
	}
}

// TestObsStream: a job with Obs set streams telemetry bundles as JSONL
// obs events (one meta line plus snapshot lines per cell).
func TestObsStream(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := quickSpec()
	spec.Obs = true
	id := submit(t, ts.URL, spec)
	events := stream(t, ts.URL, id)

	obsEvents := 0
	for _, ev := range events {
		if ev.Type != "obs" {
			continue
		}
		obsEvents++
		var rec struct {
			Cell string `json:"cell"`
		}
		first := strings.SplitN(ev.Data, "\n", 2)[0]
		if err := json.Unmarshal([]byte(first), &rec); err != nil || rec.Cell == "" {
			t.Fatalf("bad obs JSONL line %q: %v", first, err)
		}
	}
	if obsEvents == 0 {
		t.Fatal("no obs events streamed")
	}
}

// TestBadRequests: malformed JSON and unknown experiments are 400s.
func TestBadRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{"{nope", `{"experiment":"no-such-fig"}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q: %d", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
}

// TestLegacyShardsFieldIgnored: specs written when jobs could select a
// sharded engine may still carry a shard count (the testdata spec is the
// quick spec plus a shard count of 4). The decoder ignores it like any
// unknown field, so such a job runs on the one engine and renders
// exactly the tables of the same spec without it.
func TestLegacyShardsFieldIgnored(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tables := func(id string) []string {
		t.Helper()
		var out []string
		for _, ev := range stream(t, ts.URL, id) {
			switch ev.Type {
			case "table":
				out = append(out, ev.Data)
			case "done":
				if !strings.Contains(ev.Data, StateDone) {
					t.Fatalf("job %s ended %s", id, ev.Data)
				}
			}
		}
		if len(out) == 0 {
			t.Fatalf("job %s rendered no tables", id)
		}
		return out
	}
	legacy, err := os.ReadFile("testdata/legacy_shards_spec.json")
	if err != nil {
		t.Fatal(err)
	}
	want := tables(submit(t, ts.URL, quickSpec()))
	got := tables(submitJSON(t, ts.URL, legacy))
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("tables differ with a legacy shards field:\n got %v\nwant %v", got, want)
	}
}

// TestDrainCheckpointResume is the SIGTERM story end to end: a
// checkpointing server drains mid-run, the job lands interrupted with
// a journal, and a restarted server fed the same submission resumes it
// to tables identical to an uninterrupted run.
func TestDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	// fig8 with serial workers: 4 message lengths x 3 schemes x 2
	// topologies x 3 probes of up-to-1024-flit messages — long enough
	// that the drain below lands mid-run.
	spec := JobSpec{Experiment: "fig8", Probes: 3, Topologies: 2, Workers: 1}

	// Uninterrupted reference, straight through the experiment layer.
	entry, err := experiment.Lookup(spec.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	want, err := entry.Run(spec.config())
	if err != nil {
		t.Fatal(err)
	}
	var wantText strings.Builder
	for _, tab := range want {
		if err := tab.Render(&wantText); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Options{CheckpointDir: dir})
	ts := httptest.NewServer(s.Handler())
	id := submit(t, ts.URL, spec)

	// Wait until the job has its journal open, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		j.mu.Lock()
		ready := j.ck != nil
		j.mu.Unlock()
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never opened its checkpointer")
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	st := s.jobs[id].status()
	ts.Close()
	if st.State == StateDone {
		t.Skip("job outran the drain; nothing to resume")
	}
	if st.State != StateInterrupted {
		t.Fatalf("post-drain state = %+v", st)
	}

	// "Restart": a fresh server on the same checkpoint directory gets
	// the same job ID for the same (first) submission and resumes it.
	s2 := New(Options{CheckpointDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	id2 := submit(t, ts2.URL, spec)
	if id2 != id {
		t.Fatalf("restarted server assigned %s, want %s", id2, id)
	}
	events := stream(t, ts2.URL, id2)
	var gotText strings.Builder
	finalState := ""
	for _, ev := range events {
		switch ev.Type {
		case "table":
			var tab map[string]string
			if err := json.Unmarshal([]byte(ev.Data), &tab); err != nil {
				t.Fatal(err)
			}
			gotText.WriteString(tab["text"])
		case "done":
			var d map[string]string
			if err := json.Unmarshal([]byte(ev.Data), &d); err != nil {
				t.Fatal(err)
			}
			finalState = d["state"]
		}
	}
	if finalState != StateDone {
		t.Fatalf("resumed job state = %q", finalState)
	}
	if gotText.String() != wantText.String() {
		t.Fatalf("resumed tables differ from uninterrupted:\n--- resumed ---\n%s\n--- reference ---\n%s",
			gotText.String(), wantText.String())
	}

	// Draining servers refuse new work.
	s2.Drain()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts2.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d", resp.StatusCode)
	}
}
