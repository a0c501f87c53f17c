// Package obs is the simulator's sampling telemetry subsystem. It
// surfaces the quantities the paper's NI-vs-switch argument turns on —
// per-link flit traffic, switch output-port arbitration conflicts and
// input-buffer occupancy, NI send/recv queue depths, credit stalls, and
// event-engine overflow behaviour — as fixed-cadence time series, so a
// fig9-style saturation cliff can be explained from the run itself
// instead of from a single end-of-run latency number.
//
// The simulator keeps every counter a Snapshot reports, recorder or not;
// a Recorder only reads them, through the fill function the simulator
// hands Sample at each flush. Allocation happens only inside Sample,
// which runs at the flush cadence (default every 1024 cycles), never per
// flit. A Recorder belongs to exactly one simulation cell (one
// goroutine); experiment harnesses create one per cell and merge the
// resulting Bundles order-stably afterwards.
//
// Cumulative-vs-interval convention: the flush writes running totals;
// the Recorder differentiates against the previous sample, so every
// Snapshot holds the activity of its interval only and the sum of a
// series reconciles exactly with the run's final counters (sum of
// ChanFlits across all snapshots == Stats.FlitHops).
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

	// last is the cumulative state of the previous sample, the baseline
	// Sample differences against; AttachNetwork zeroes it.
	last Snapshot

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

// AttachNetwork begins a new run. The first call registers the topology
// (channel labels in the network's deterministic enumeration order);
// later calls must present the identical shape — a Recorder observes one
// cell, and a cell re-simulates one routed topology.
func (r *Recorder) AttachNetwork(chanLabels []string, switches, nodes int) {
	if !r.started {
		r.chans = append([]string(nil), chanLabels...)
		r.switches = switches
		r.nodes = nodes
		r.last = r.newSnapshot()
		r.started = true
	} else if len(chanLabels) != len(r.chans) || switches != r.switches || nodes != r.nodes {
		panic(fmt.Sprintf("obs: attach with %d channels/%d switches/%d nodes to a recorder registered with %d/%d/%d — one Recorder observes one cell topology",
			len(chanLabels), switches, nodes, len(r.chans), r.switches, r.nodes))
	}
	r.run++
	// Fresh network: every cumulative counter it keeps, the engine's
	// included, restarts at zero, so every baseline restarts too.
	clear(r.last.ChanFlits)
	clear(r.last.ChanStalls)
	clear(r.last.ArbConflicts)
	clear(r.last.NIDeferred)
	r.last.FlitHops, r.last.Events, r.last.FarPosts, r.last.Migrations = 0, 0, 0, 0
}

// newSnapshot returns a snapshot with every per-element series sized to
// the registered topology.
func (r *Recorder) newSnapshot() Snapshot {
	return Snapshot{
		ChanFlits:    make([]int64, len(r.chans)),
		ChanStalls:   make([]int64, len(r.chans)),
		BufOcc:       make([]int64, r.switches),
		ArbConflicts: make([]int64, r.switches),
		NISend:       make([]int64, r.nodes),
		NIRecv:       make([]int64, r.nodes),
		NIDeferred:   make([]int64, r.nodes),
	}
}

// Sample captures one snapshot at time at. fill receives a Snapshot with
// arrays sized to the registered topology and writes the CUMULATIVE
// values of ChanFlits, ChanStalls, ArbConflicts, NIDeferred, FlitHops,
// Events, FarPosts and Migrations, and the instantaneous BufOcc, NISend,
// NIRecv, QueueLen and FarLen; the recorder differentiates every
// cumulative field against the previous sample before storing.
// Snapshots past the configured cap evict the oldest (counted in
// Bundle.Dropped).
func (r *Recorder) Sample(at event.Time, fill func(*Snapshot)) {
	if !r.started {
		panic("obs: Sample before AttachNetwork")
	}
	s := r.newSnapshot()
	s.Run, s.At = r.run, at
	fill(&s)
	delta(s.ChanFlits, r.last.ChanFlits)
	delta(s.ChanStalls, r.last.ChanStalls)
	delta(s.ArbConflicts, r.last.ArbConflicts)
	delta(s.NIDeferred, r.last.NIDeferred)
	s.FlitHops, r.last.FlitHops = s.FlitHops-r.last.FlitHops, s.FlitHops
	s.Events, r.last.Events = s.Events-r.last.Events, s.Events
	s.FarPosts, r.last.FarPosts = s.FarPosts-r.last.FarPosts, s.FarPosts
	s.Migrations, r.last.Migrations = s.Migrations-r.last.Migrations, s.Migrations
	r.push(s)
}

// delta turns the cumulative totals in cur into intervals against last,
// and stores the totals in last as the next baseline.
func delta(cur, last []int64) {
	for i, total := range cur {
		cur[i], last[i] = total-last[i], total
	}
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
