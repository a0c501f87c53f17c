// Package serve implements mcastsim's long-run service mode: an HTTP
// server that accepts JSON workload specs, runs them on the experiment
// worker pool, and streams progress, telemetry and result tables back
// over Server-Sent Events. With a checkpoint directory configured,
// Drain (wired to SIGTERM by the CLI) interrupts every running job at
// its next cell boundary and leaves a resumable journal behind, so a
// restarted server picks long experiments up where the old process
// stopped, provided each job comes back with the same spec.
//
// Endpoints:
//
//	GET  /v1/healthz          liveness probe
//	GET  /v1/experiments      the experiment catalogue (registry IDs)
//	POST /v1/jobs             submit a JobSpec; returns {"id": ...}
//	                          (429 while maxRunningJobs jobs run)
//	GET  /v1/jobs             list all jobs
//	GET  /v1/jobs/{id}        one job's status
//	GET  /v1/jobs/{id}/stream SSE: progress, obs, table, done events
//
// The stream replays a job's full event history on connect, so a
// late subscriber sees everything an early one did.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"

	"mcastsim/internal/event"
	"mcastsim/internal/experiment"
	"mcastsim/internal/obs"
)

// maxSpecBytes bounds a POST /v1/jobs body; a JobSpec is a few hundred
// bytes, and a larger body is refused with 413 before any job exists.
const maxSpecBytes = 1 << 20

// maxRunningJobs caps the jobs running at once. Each job runs its own
// cell worker pool (one worker per CPU by default) and holds its
// networks in memory, so more jobs only queue on the same cores. A
// submission past the cap is refused with 429 before any job exists.
const maxRunningJobs = 4

// JobSpec is the JSON workload description POST /v1/jobs accepts. The
// zero value of every optional field keeps the preset's default.
type JobSpec struct {
	// Experiment is a registry ID (see GET /v1/experiments). Required.
	Experiment string `json:"experiment"`
	// Full selects the paper-scale preset instead of quick.
	Full bool `json:"full,omitempty"`
	// Seed overrides the preset seed (0 keeps the default).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the cell worker pool (0 = one per CPU). Results
	// are byte-identical for any value.
	Workers int `json:"workers,omitempty"`
	// Probes / Topologies scale the experiment grid down (or up).
	Probes     int `json:"probes,omitempty"`
	Topologies int `json:"topologies,omitempty"`
	// Obs streams per-cell telemetry bundles as JSONL over the job's
	// event stream, one bundle per cell. On a checkpointing server the
	// journal keeps each cell's bundle with its result, so a resumed
	// job streams the bundles of journaled cells again.
	Obs bool `json:"obs,omitempty"`
	// ObsEvery is the telemetry sampling cadence in cycles (with Obs).
	ObsEvery uint64 `json:"obs_every,omitempty"`
}

// config maps the spec onto an experiment.Config.
func (sp JobSpec) config() experiment.Config {
	cfg := experiment.Quick()
	if sp.Full {
		cfg = experiment.Full()
	}
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	cfg.Workers = sp.Workers
	if sp.Probes > 0 {
		cfg.Probes = sp.Probes
	}
	if sp.Topologies > 0 {
		cfg.Topologies = sp.Topologies
		if cfg.LoadTopologies > sp.Topologies {
			cfg.LoadTopologies = sp.Topologies
		}
	}
	return cfg
}

// Job states.
const (
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted" // drained to a resumable checkpoint
)

// jobEvent is one SSE frame: a type and a pre-marshaled payload.
type jobEvent struct {
	Type string // progress | obs | table | done
	Data []byte // JSON (obs events carry obs JSONL, possibly multi-line)
}

// Job is one submitted experiment run.
type Job struct {
	ID   string
	Spec JobSpec

	mu       sync.Mutex
	state    string
	errMsg   string
	done     int // cells finished in the current grid
	total    int // current grid size
	events   []jobEvent
	subs     map[chan struct{}]struct{}
	finished chan struct{}
	ck       *experiment.Checkpointer
}

// publish appends an event and pokes every subscriber.
func (j *Job) publish(typ string, data []byte) {
	j.mu.Lock()
	j.events = append(j.events, jobEvent{Type: typ, Data: data})
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}

// Status is the JSON shape of GET /v1/jobs and GET /v1/jobs/{id}.
type Status struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	State      string `json:"state"`
	DoneCells  int    `json:"done_cells"`
	TotalCells int    `json:"total_cells"`
	Error      string `json:"error,omitempty"`
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, Experiment: j.Spec.Experiment, State: j.state,
		DoneCells: j.done, TotalCells: j.total, Error: j.errMsg,
	}
}

// Options configure a Server.
type Options struct {
	// CheckpointDir, when non-empty, gives every job a journal at
	// <dir>/<job-id> and makes Drain checkpoint in-flight jobs.
	// Job IDs are assigned in submission order, so a restarted server
	// fed the same submissions resumes each job from its journal. A job
	// whose spec would change its results (anything but Workers, Obs
	// and ObsEvery) fails on a journal stamped for another spec, which
	// stays as it was.
	CheckpointDir string
}

// Server owns the job table. Create with New, mount Handler, and call
// Drain before process exit.
type Server struct {
	opts Options

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	draining bool
	wg       sync.WaitGroup
}

// New returns an empty server.
func New(opts Options) *Server {
	return &Server{opts: opts, jobs: make(map[string]*Job)}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			ID    string `json:"id"`
			Paper string `json:"paper"`
		}
		var out []entry
		for _, e := range experiment.Registry() {
			out = append(out, entry{e.ID, e.Paper})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	var spec JobSpec
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": "bad spec: " + err.Error()})
		return
	}
	entry, err := experiment.Lookup(spec.Experiment)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server is draining"})
		return
	}
	// A refused submission takes no job ID: a restarted server finds each
	// journal by its submission-order ID, so IDs must not skip.
	if s.runningLocked() >= maxRunningJobs {
		s.mu.Unlock()
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": fmt.Sprintf("too many running jobs (limit %d); resubmit when one finishes", maxRunningJobs)})
		return
	}
	s.nextID++
	job := &Job{
		ID: fmt.Sprintf("job-%04d", s.nextID), Spec: spec,
		state: StateRunning, subs: make(map[chan struct{}]struct{}),
		finished: make(chan struct{}),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.wg.Add(1)
	s.mu.Unlock()

	go s.run(job, entry)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID, "state": StateRunning})
}

// runningLocked counts the jobs still running; s.mu must be held.
func (s *Server) runningLocked() int {
	n := 0
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		if j.state == StateRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

// handleStream serves a job's event history plus live tail as SSE.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	poke := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[poke] = struct{}{}
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		delete(j.subs, poke)
		j.mu.Unlock()
	}()

	idx := 0
	for {
		j.mu.Lock()
		pending := j.events[idx:]
		idx = len(j.events)
		j.mu.Unlock()
		for _, ev := range pending {
			if err := writeSSE(w, ev); err != nil {
				return
			}
		}
		if len(pending) > 0 {
			fl.Flush()
		}
		select {
		case <-j.finished:
			// Drain anything published between our snapshot and the close.
			j.mu.Lock()
			tail := j.events[idx:]
			j.mu.Unlock()
			for _, ev := range tail {
				if err := writeSSE(w, ev); err != nil {
					return
				}
			}
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		case <-poke:
		}
	}
}

// writeSSE frames one event; multi-line payloads (obs JSONL) become one
// data: line each, as the SSE grammar requires.
func writeSSE(w http.ResponseWriter, ev jobEvent) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "event: %s\n", ev.Type)
	for _, line := range strings.Split(strings.TrimRight(string(ev.Data), "\n"), "\n") {
		fmt.Fprintf(&b, "data: %s\n", line)
	}
	b.WriteString("\n")
	_, err := w.Write(b.Bytes())
	return err
}

// run executes one job to completion (or interruption) and publishes
// its lifecycle onto the event stream.
func (s *Server) run(j *Job, entry experiment.Entry) {
	defer s.wg.Done()
	defer close(j.finished)

	cfg := j.Spec.config()
	cfg.Progress = func(done, total int) {
		j.mu.Lock()
		j.done, j.total = done, total
		j.mu.Unlock()
		data, _ := json.Marshal(map[string]int{"done": done, "total": total})
		j.publish("progress", data)
	}
	if j.Spec.Obs {
		cfg.Obs = &experiment.ObsSink{
			Config: obs.Config{Every: event.Time(j.Spec.ObsEvery)},
			OnAdd: func(b obs.Bundle) {
				var buf bytes.Buffer
				if err := obs.WriteJSONL(&buf, []obs.Bundle{b}); err == nil {
					j.publish("obs", buf.Bytes())
				}
			},
		}
	}
	if s.opts.CheckpointDir != "" {
		ck, err := experiment.OpenCheckpointer(filepath.Join(s.opts.CheckpointDir, j.ID), []string{entry.ID}, cfg)
		if err != nil {
			s.finish(j, StateFailed, err.Error())
			return
		}
		defer ck.Close()
		cfg.Checkpoint = ck
		j.mu.Lock()
		j.ck = ck
		j.mu.Unlock()
	}

	tables, err := entry.Run(cfg)
	if err != nil {
		var intr *experiment.Interrupted
		if errors.As(err, &intr) {
			s.finish(j, StateInterrupted, err.Error())
			return
		}
		s.finish(j, StateFailed, err.Error())
		return
	}
	for _, tab := range tables {
		var text strings.Builder
		if err := tab.Render(&text); err != nil {
			s.finish(j, StateFailed, err.Error())
			return
		}
		data, _ := json.Marshal(map[string]string{"title": tab.Title, "text": text.String()})
		j.publish("table", data)
	}
	s.finish(j, StateDone, "")
}

// finish records the terminal state and publishes the done event.
func (s *Server) finish(j *Job, state, errMsg string) {
	j.mu.Lock()
	j.state, j.errMsg = state, errMsg
	j.mu.Unlock()
	payload := map[string]string{"state": state}
	if errMsg != "" {
		payload["error"] = errMsg
	}
	data, _ := json.Marshal(payload)
	j.publish("done", data)
}

// Drain stops accepting jobs, interrupts every checkpointing job at
// its next cell boundary, and blocks until all jobs have finished.
// Without a checkpoint directory jobs have no journal and run to
// completion — they have nowhere to save progress.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		if j.state == StateRunning && j.ck != nil {
			j.ck.Interrupt()
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
