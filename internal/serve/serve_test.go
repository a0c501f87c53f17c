package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
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

// TestBadRequests: malformed JSON and unknown experiments are 400s; a
// body over maxSpecBytes is a 413. None of them creates a job.
func TestBadRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	oversized := `{"experiment":"fig6","pad":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	for _, c := range []struct {
		body string
		code int
	}{
		{"{nope", http.StatusBadRequest},
		{`{"experiment":"no-such-fig"}`, http.StatusBadRequest},
		{oversized, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Fatalf("submit %.40q: %d, want %d", c.body, resp.StatusCode, c.code)
		}
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("rejected submissions created %d jobs", jobs)
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

// TestRunningJobLimit: with maxRunningJobs jobs running, a submission is
// a 429 with a JSON error that creates no job and takes no job ID; once
// one of them finishes, the next submission gets the next ID and runs.
func TestRunningJobLimit(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.mu.Lock()
	for i := 0; i < maxRunningJobs; i++ {
		s.nextID++
		j := &Job{ID: fmt.Sprintf("job-%04d", s.nextID), state: StateRunning,
			subs: make(map[chan struct{}]struct{}), finished: make(chan struct{})}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.mu.Unlock()

	body, _ := json.Marshal(quickSpec())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var refused map[string]string
	err = json.NewDecoder(resp.Body).Decode(&refused)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || err != nil || refused["error"] == "" {
		t.Fatalf("submit past the limit: %d %v (decode error %v), want 429 with an error", resp.StatusCode, refused, err)
	}
	s.mu.Lock()
	jobs, nextID := len(s.jobs), s.nextID
	s.mu.Unlock()
	if jobs != maxRunningJobs || nextID != maxRunningJobs {
		t.Fatalf("refused submission left %d jobs and next ID %d, want %d and %d", jobs, nextID, maxRunningJobs, maxRunningJobs)
	}

	s.mu.Lock()
	first := s.jobs["job-0001"]
	s.mu.Unlock()
	first.mu.Lock()
	first.state = StateDone
	first.mu.Unlock()
	id := submit(t, ts.URL, quickSpec())
	if want := fmt.Sprintf("job-%04d", maxRunningJobs+1); id != want {
		t.Fatalf("job ID after a refusal = %s, want %s", id, want)
	}
	collect(t, stream(t, ts.URL, id)) // fails unless the job ends done
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

// waitJob polls until ready reports true for job id, failing after
// ten seconds.
func waitJob(t *testing.T, s *Server, id string, ready func(j *Job) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		j.mu.Lock()
		ok := ready(j)
		j.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never got ready", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// jobOutput is what a finished job streamed: its rendered tables, its
// obs events joined into one JSONL stream, and how many bundles that
// stream holds.
type jobOutput struct {
	tables, obs string
	bundles     int
}

// collect folds a job's events into its output, failing unless the job
// ended done.
func collect(t *testing.T, events []sseEvent) jobOutput {
	t.Helper()
	var out jobOutput
	final := ""
	for _, ev := range events {
		switch ev.Type {
		case "table":
			var tab map[string]string
			if err := json.Unmarshal([]byte(ev.Data), &tab); err != nil {
				t.Fatal(err)
			}
			out.tables += tab["text"]
		case "obs":
			out.obs += ev.Data + "\n"
			out.bundles++
		case "done":
			var d map[string]string
			if err := json.Unmarshal([]byte(ev.Data), &d); err != nil {
				t.Fatal(err)
			}
			final = d["state"]
		}
	}
	if final != StateDone {
		t.Fatalf("job state = %q", final)
	}
	return out
}

// TestDrainCheckpointResume is the SIGTERM story end to end: a
// checkpointing server drains mid-run, the job lands interrupted with
// a journal, and a restarted server fed the same submission resumes it
// to the tables of an uninterrupted job. An obs job gets a journal too:
// resumed, it streams exactly one bundle per cell (journaled cells
// re-stream theirs), and with one worker the stream is byte-identical
// to an uninterrupted job's.
func TestDrainCheckpointResume(t *testing.T) {
	for _, withObs := range []bool{false, true} {
		t.Run(fmt.Sprintf("obs=%v", withObs), func(t *testing.T) {
			dir := t.TempDir()
			// fig8 with serial workers: 4 message lengths x 3 schemes x 2
			// topologies x 3 probes of up-to-1024-flit messages — long
			// enough that the drain below lands mid-run.
			spec := JobSpec{Experiment: "fig8", Probes: 3, Topologies: 2, Workers: 1, Obs: withObs}

			// Uninterrupted reference: the same job on a server without
			// a journal.
			ref := New(Options{})
			tsRef := httptest.NewServer(ref.Handler())
			want := collect(t, stream(t, tsRef.URL, submit(t, tsRef.URL, spec)))
			tsRef.Close()
			if withObs && want.bundles == 0 {
				t.Fatal("reference obs job streamed no bundles")
			}

			s := New(Options{CheckpointDir: dir})
			ts := httptest.NewServer(s.Handler())
			id := submit(t, ts.URL, spec)

			// Drain once the journal holds a cell.
			waitJob(t, s, id, func(j *Job) bool { return j.ck != nil && j.done > 0 })
			s.Drain()
			st := s.jobs[id].status()
			ts.Close()
			if st.State == StateDone {
				t.Skip("job outran the drain; nothing to resume")
			}
			if st.State != StateInterrupted {
				t.Fatalf("post-drain state = %+v", st)
			}

			// "Restart": a fresh server on the same checkpoint directory
			// gets the same job ID for the same (first) submission and
			// resumes it.
			s2 := New(Options{CheckpointDir: dir})
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			id2 := submit(t, ts2.URL, spec)
			if id2 != id {
				t.Fatalf("restarted server assigned %s, want %s", id2, id)
			}
			got := collect(t, stream(t, ts2.URL, id2))
			if got.tables != want.tables {
				t.Fatalf("resumed tables differ from uninterrupted:\n--- resumed ---\n%s\n--- reference ---\n%s",
					got.tables, want.tables)
			}
			if got.bundles != want.bundles {
				t.Fatalf("resumed job streamed %d bundles, want one per cell (%d)", got.bundles, want.bundles)
			}
			if got.obs != want.obs {
				t.Fatalf("resumed obs stream differs from uninterrupted (%d vs %d bytes)", len(got.obs), len(want.obs))
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
		})
	}
}

// readTree maps every file under dir to its contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestartOtherSpecFails: a restarted server that gets a different
// spec under a journaled job's ID must not resume that journal. The job
// fails with the journal's mismatch error, streams no table, and leaves
// the journal as it was.
func TestRestartOtherSpecFails(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{CheckpointDir: dir})
	ts := httptest.NewServer(s.Handler())
	id := submit(t, ts.URL, quickSpec())
	collect(t, stream(t, ts.URL, id))
	s.Drain()
	ts.Close()
	journal := readTree(t, filepath.Join(dir, id))
	if len(journal) == 0 {
		t.Fatalf("job %s left no journal", id)
	}

	s2 := New(Options{CheckpointDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	other := quickSpec()
	other.Experiment = "fig8"
	id2 := submit(t, ts2.URL, other)
	if id2 != id {
		t.Fatalf("restarted server assigned %s, want %s", id2, id)
	}
	for _, ev := range stream(t, ts2.URL, id2) {
		if ev.Type == "table" {
			t.Fatalf("job on another run's journal streamed a table: %s", ev.Data)
		}
	}
	st := s2.jobs[id2].status()
	if st.State != StateFailed || !strings.Contains(st.Error, "belongs to run fig6") {
		t.Fatalf("job on another run's journal ended %+v, want failed with the journal's mismatch", st)
	}
	if got := readTree(t, filepath.Join(dir, id)); !reflect.DeepEqual(got, journal) {
		t.Fatal("the refused job changed its journal")
	}
	s2.Drain()
}
