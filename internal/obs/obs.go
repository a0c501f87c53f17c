// Package obs is the simulator's sampling telemetry subsystem. It
// surfaces the quantities the paper's NI-vs-switch argument turns on —
// per-link flit traffic, switch output-port arbitration conflicts and
// input-buffer occupancy, NI send/recv queue depths, credit stalls, and
// event-engine overflow behaviour — as fixed-cadence time series, so a
// fig9-style saturation cliff can be explained from the run itself
// instead of from a single end-of-run latency number.
//
// The design contract is zero overhead when disabled: the simulator
// carries a single nil-checked *Recorder pointer, every probe site is a
// one-branch guard on a cold path, and no probe allocates. Allocation
// happens only inside Sample, which runs at the flush cadence (default
// every 1024 cycles), never per flit. A Recorder belongs to exactly one
// simulation cell (one goroutine); experiment harnesses create one per
// cell and merge the resulting Bundles order-stably afterwards.
//
// Cumulative-vs-interval convention: probes and the sim's flush both
// write running totals; the Recorder differentiates against the previous
// sample, so every Snapshot holds the activity of its interval only and
// the sum of a series reconciles exactly with the run's final counters
// (sum of ChanFlits across all snapshots == Stats.FlitHops).
package obs

import (
	"fmt"

	"mcastsim/internal/event"
)

// DefaultEvery is the sampling cadence, in cycles, when Config.Every is
// unset. It matches the event ring size: one snapshot per calendar wrap.
const DefaultEvery = event.Time(1024)

// MaxEvery is the longest sampling cadence, in cycles, a user may ask
// for: a tick is scheduled that far past the current cycle, and a longer
// cadence could overflow the event clock. 2^40 cycles is past the end of
// any run the simulator makes.
const MaxEvery = event.Time(1 << 40)

// CheckEvery refuses a user-supplied cadence (a flag or a job spec field)
// above MaxEvery; 0 selects DefaultEvery.
func CheckEvery(every uint64) error {
	if every > uint64(MaxEvery) {
		return fmt.Errorf("obs: sampling cadence %d cycles exceeds the maximum %d", every, MaxEvery)
	}
	return nil
}

// DefaultMaxSamples bounds the snapshot ring when Config.MaxSamples is
// unset. At the default cadence this covers ~4M cycles before eviction.
const DefaultMaxSamples = 4096

// Config parameterizes a Recorder.
type Config struct {
	// Every is the flush cadence in cycles; <= 0 selects DefaultEvery.
	Every event.Time
	// MaxSamples caps the retained snapshots; the recorder keeps the most
	// recent ones and counts evictions in Bundle.Dropped. <= 0 selects
	// DefaultMaxSamples.
	MaxSamples int
}

// Snapshot is one sampling interval of one simulation run. Slice fields
// are indexed by the registration order the attached network reported
// (channels in deterministic enumeration order, switches and nodes by
// id). Interval fields cover (previous sample, At]; depth fields are
// instantaneous at At.
type Snapshot struct {
	Run int        `json:"run"` // network index within the cell (0-based)
	At  event.Time `json:"at"`  // sample time in cycles

	ChanFlits  []int64 `json:"chan_flits"`  // per channel: flits transmitted this interval
	ChanStalls []int64 `json:"chan_stalls"` // per channel: credit-exhausted pump attempts

	BufOcc       []int64 `json:"buf_occ"`       // per switch: input-buffer flits resident at At
	ArbConflicts []int64 `json:"arb_conflicts"` // per switch: output-port requests that had to queue

	NISend     []int64 `json:"ni_send"`     // per node: bursts awaiting injection at At
	NIRecv     []int64 `json:"ni_recv"`     // per node: packets mid-assembly at At
	NIDeferred []int64 `json:"ni_deferred"` // per node: bursts deferred by a full injection buffer

	FlitHops int64 `json:"flit_hops"` // total flit transmissions this interval

	Events     uint64 `json:"events"`     // engine events dispatched this interval
	QueueLen   int64  `json:"queue_len"`  // pending events at At
	FarLen     int64  `json:"far_len"`    // overflow-heap entries at At
	FarPosts   uint64 `json:"far_posts"`  // posts beyond the calendar window this interval
	Migrations uint64 `json:"migrations"` // far→ring migrations this interval

	// Dynamic-group series, indexed by GroupID; present only on runs with
	// registered groups (see sim/group.go). GroupSize is instantaneous at
	// At; the remaining fields are cumulative as of At (membership churn
	// is far sparser than the sampling cadence, and the churn experiment
	// reads absolute counts), so the recorder does not difference them.
	GroupSize    []int64 `json:"group_size,omitempty"`    // per group: members at At
	GroupStale   []int64 `json:"group_stale,omitempty"`   // per group: stale deliveries so far
	GroupMissed  []int64 `json:"group_missed,omitempty"`  // per group: missed deliveries so far
	GroupRepairs []int64 `json:"group_repairs,omitempty"` // per group: plan repairs so far
}

// Bundle is one cell's complete observation: topology labels plus the
// ordered snapshot series. Bundles are self-describing so exporters and
// readers need no side channel.
type Bundle struct {
	Cell      string     `json:"cell"`     // deterministic cell label
	Channels  []string   `json:"channels"` // channel labels, registration order
	Switches  int        `json:"switches"`
	Nodes     int        `json:"nodes"`
	Every     event.Time `json:"every"`
	Dropped   int64      `json:"dropped,omitempty"` // ring-evicted snapshots
	Snapshots []Snapshot `json:"snapshots"`
}

// Recorder accumulates one cell's telemetry. Not safe for concurrent
// use: it lives inside a single cell's goroutine, like the Network it
// observes.
type Recorder struct {
	cfg Config

	// Topology registered by the first attached network; later networks
	// in the same cell must match (same routed topology re-simulated).
	chans    []string
	switches int
	nodes    int

	// Probe accumulators, cumulative over the current run.
	chanStalls   []int64
	arbConflicts []int64
	niDeferred   []int64
	engine       event.EngineObs

	// Differencing baselines, reset per attach (per run) for per-network
	// counters and kept across runs for the recorder-owned engine sink.
	lastFlits    []int64
	lastStalls   []int64
	lastConf     []int64
	lastDeferred []int64
	lastHops     int64
	lastEvents   uint64
	lastFarPosts uint64
	lastMigr     uint64

	run     int // current run index; -1 before the first attach
	started bool

	// Snapshot ring.
	snaps   []Snapshot
	start   int
	count   int
	dropped int64
}

// NewRecorder returns a recorder with defaults applied.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = DefaultMaxSamples
	}
	return &Recorder{cfg: cfg, run: -1}
}

// Every reports the flush cadence in cycles.
func (r *Recorder) Every() event.Time { return r.cfg.Every }

// EngineSink returns the counter block a Queue should post cold-path
// scheduling counters into (via Queue.SetObs). The sink is recorder-owned
// and persists across the cell's networks.
func (r *Recorder) EngineSink() *event.EngineObs { return &r.engine }

// AttachNetwork begins a new run. The first call registers the topology
// (channel labels in the network's deterministic enumeration order);
// later calls must present the identical shape — a Recorder observes one
// cell, and a cell re-simulates one routed topology.
func (r *Recorder) AttachNetwork(chanLabels []string, switches, nodes int) {
	if !r.started {
		r.chans = append([]string(nil), chanLabels...)
		r.switches = switches
		r.nodes = nodes
		r.chanStalls = make([]int64, len(chanLabels))
		r.arbConflicts = make([]int64, switches)
		r.niDeferred = make([]int64, nodes)
		r.lastFlits = make([]int64, len(chanLabels))
		r.lastStalls = make([]int64, len(chanLabels))
		r.lastConf = make([]int64, switches)
		r.lastDeferred = make([]int64, nodes)
		r.started = true
	} else if len(chanLabels) != len(r.chans) || switches != r.switches || nodes != r.nodes {
		panic(fmt.Sprintf("obs: attach with %d channels/%d switches/%d nodes to a recorder registered with %d/%d/%d — one Recorder observes one cell topology",
			len(chanLabels), switches, nodes, len(r.chans), r.switches, r.nodes))
	}
	r.run++
	// Fresh network: its cumulative counters restart at zero, so the
	// per-network baselines restart too. The engine sink is cumulative
	// across runs and its baselines are NOT reset.
	for i := range r.lastFlits {
		r.lastFlits[i] = 0
		r.lastStalls[i] = 0
	}
	for i := range r.lastConf {
		r.lastConf[i] = 0
	}
	for i := range r.lastDeferred {
		r.lastDeferred[i] = 0
	}
	for i := range r.chanStalls {
		r.chanStalls[i] = 0
	}
	for i := range r.arbConflicts {
		r.arbConflicts[i] = 0
	}
	for i := range r.niDeferred {
		r.niDeferred[i] = 0
	}
	r.lastHops = 0
	r.lastEvents = 0
}

// CreditStall records one credit-exhausted pump attempt on channel ch.
func (r *Recorder) CreditStall(ch int32) { r.chanStalls[ch]++ }

// ArbConflict records one output-port request that found every candidate
// port held and had to queue at switch sw.
func (r *Recorder) ArbConflict(sw int32) { r.arbConflicts[sw]++ }

// NIDeferred records one burst deferred because node's NI injection
// buffer was full.
func (r *Recorder) NIDeferred(node int32) { r.niDeferred[node]++ }

// Sample captures one snapshot at time at. fill receives a Snapshot with
// arrays sized to the registered topology and writes the CUMULATIVE
// values of ChanFlits, FlitHops, Events, and the instantaneous BufOcc,
// NISend, NIRecv, QueueLen, FarLen; the recorder folds in its own probe
// accumulators and differentiates every cumulative field against the
// previous sample before storing. Snapshots past the configured cap evict
// the oldest (counted in Bundle.Dropped).
func (r *Recorder) Sample(at event.Time, fill func(*Snapshot)) {
	if !r.started {
		panic("obs: Sample before AttachNetwork")
	}
	s := Snapshot{
		Run:          r.run,
		At:           at,
		ChanFlits:    make([]int64, len(r.chans)),
		ChanStalls:   make([]int64, len(r.chans)),
		BufOcc:       make([]int64, r.switches),
		ArbConflicts: make([]int64, r.switches),
		NISend:       make([]int64, r.nodes),
		NIRecv:       make([]int64, r.nodes),
		NIDeferred:   make([]int64, r.nodes),
	}
	fill(&s)
	for i := range s.ChanFlits {
		total := s.ChanFlits[i]
		s.ChanFlits[i] = total - r.lastFlits[i]
		r.lastFlits[i] = total
		s.ChanStalls[i] = r.chanStalls[i] - r.lastStalls[i]
		r.lastStalls[i] = r.chanStalls[i]
	}
	for i := range s.ArbConflicts {
		s.ArbConflicts[i] = r.arbConflicts[i] - r.lastConf[i]
		r.lastConf[i] = r.arbConflicts[i]
	}
	for i := range s.NIDeferred {
		s.NIDeferred[i] = r.niDeferred[i] - r.lastDeferred[i]
		r.lastDeferred[i] = r.niDeferred[i]
	}
	s.FlitHops, r.lastHops = s.FlitHops-r.lastHops, s.FlitHops
	s.Events, r.lastEvents = s.Events-r.lastEvents, s.Events
	s.FarPosts, r.lastFarPosts = r.engine.FarPosts-r.lastFarPosts, r.engine.FarPosts
	s.Migrations, r.lastMigr = r.engine.Migrations-r.lastMigr, r.engine.Migrations
	r.push(s)
}

// push appends to the bounded snapshot ring.
func (r *Recorder) push(s Snapshot) {
	if r.snaps == nil {
		r.snaps = make([]Snapshot, 0, min(r.cfg.MaxSamples, 64))
	}
	if r.count < r.cfg.MaxSamples {
		if len(r.snaps) < r.cfg.MaxSamples && r.count == len(r.snaps) {
			r.snaps = append(r.snaps, s)
		} else {
			r.snaps[(r.start+r.count)%r.cfg.MaxSamples] = s
		}
		r.count++
		return
	}
	r.snaps[r.start] = s
	r.start = (r.start + 1) % r.cfg.MaxSamples
	r.dropped++
}

// Samples returns the retained snapshots, oldest first. The slice is a
// copy; mutating it does not affect the recorder.
func (r *Recorder) Samples() []Snapshot {
	out := make([]Snapshot, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.snaps[(r.start+i)%len(r.snaps)]
	}
	return out
}

// Bundle packages the recorder's state for export under a cell label.
func (r *Recorder) Bundle(cell string) Bundle {
	return Bundle{
		Cell:      cell,
		Channels:  append([]string(nil), r.chans...),
		Switches:  r.switches,
		Nodes:     r.nodes,
		Every:     r.cfg.Every,
		Dropped:   r.dropped,
		Snapshots: r.Samples(),
	}
}

// TotalFlits sums ChanFlits across every snapshot — the reconciliation
// quantity that must equal the summed Stats.FlitHops of the bundle's
// runs when every run ended with a final flush.
func (b Bundle) TotalFlits() int64 {
	var t int64
	for _, s := range b.Snapshots {
		for _, f := range s.ChanFlits {
			t += f
		}
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
