// Package sim is the flit-level network simulator at the heart of the
// reproduction: cut-through switches with finite input buffers and
// credit-based backpressure, wormhole-style output-port circuits,
// multidestination-worm replication (tree and path), and a host/NI model
// with software overheads and a shared DMA I/O bus (paper §4.1).
//
// The package executes multicast Plans (package mcast builds them) over a
// routed topology (packages topology + updown) and reports per-message
// latencies. All timing is in integer cycles; the paper's defaults are in
// DefaultParams.
package sim

import (
	"fmt"

	"mcastsim/internal/event"
)

// Params collects every timing and sizing knob of the simulated system.
// All cycle values are in switch cycles (10 ns at the paper's defaults).
type Params struct {
	// OHostSend / OHostRecv: communication software overhead per MESSAGE at
	// the sending / receiving host processor (the paper's o_s and o_r; both
	// default to o_h = 100 cycles = 1 µs).
	OHostSend event.Time
	OHostRecv event.Time
	// ONISend / ONIRecv: overhead per PACKET at the sending / receiving NI
	// processor. The paper's ratio R = o_h / o_ni is the pivotal parameter;
	// R = 1 by default.
	ONISend event.Time
	ONIRecv event.Time

	// BusMBps is the host I/O (PCI-like) bus bandwidth in MB/s; CycleNS is
	// the cycle time in nanoseconds. Together they set the DMA rate
	// (266 MB/s at 10 ns/cycle = 2.66 bytes/cycle).
	BusMBps int
	CycleNS int

	// PacketFlits is the payload flit count per packet (flit = 1 byte =
	// link width); messages longer than one packet are split.
	PacketFlits int
	// BufferFlits is the per-input-port buffer depth at switches.
	BufferFlits int

	// RoutingDelay: header decode + routing decision, charged once per worm
	// per switch (the paper argues 1 cycle for all three header types).
	// CrossbarDelay: input-to-output traversal, a per-hop pipeline fill of
	// 1 cycle. LinkDelay: flit propagation per physical link, 1 cycle.
	RoutingDelay  event.Time
	CrossbarDelay event.Time
	LinkDelay     event.Time

	// NIInjectBufferPackets bounds how many prepared packets may sit in the
	// NI's injection queue; 0 means unbounded. The NI-based scheme needs
	// NI-side buffering (paper §3.3 lists this as its cost); bounding it is
	// exposed for sensitivity studies.
	NIInjectBufferPackets int

	// EarlyTreeBranch enables the ablation variant of tree-worm routing
	// that splits off covered destination subsets while still climbing
	// (the paper's base scheme climbs to a covering switch first).
	EarlyTreeBranch bool

	// NIStoreAndForward is the ablation of the paper's FPFS discipline
	// (§3.2.1): when set, an intermediate smart NI forwards replicas only
	// after the WHOLE message has assembled at the NI, instead of
	// forwarding each packet as it arrives. Multi-packet messages then
	// lose their pipeline across tree levels.
	NIStoreAndForward bool

	// FaultDetectCycles is the reconfiguration epoch: the delay between a
	// fault event and the moment recomputed up*/down* tables are swapped
	// into the switches (fault detection + Autonet-style rebuild +
	// distribution, modeled as one lump). Worms routed in that window see
	// stale tables and may be torn down. Negative disables reconfiguration
	// entirely (tables stay stale); 0 swaps in the same cycle.
	FaultDetectCycles event.Time

	// StallCycles is the progress-watchdog horizon: when a Drain has
	// messages outstanding and sees no flit movement and no control-plane
	// progress (reconfiguration, retransmission scheduling) for this many
	// cycles, it fails with a structured StallError naming the stuck worms
	// and held ports instead of spinning or hanging. <= 0 disables the
	// periodic watchdog; the empty-queue check always applies.
	StallCycles event.Time

	// DestCoding selects the tree-worm destination-header encoding. The
	// zero value (HeaderFlat) is the paper's N-bit string, so every
	// existing configuration is unchanged; HeaderIval switches to the
	// interval-coded run list (package destset), whose header cost scales
	// with the destination set's run structure instead of the host count.
	DestCoding DestCoding

	// Deprecated: ignored; every network plans on run-coded sets.
	SetRep SetRep
}

// Deprecated: ignored; every network plans on run-coded sets.
type SetRep int

// Deprecated: ignored; every network plans on run-coded sets.
const RepSparse SetRep = 2

// DestCoding names a destination-set header encoding (see Params).
type DestCoding int

const (
	// HeaderFlat is the paper's flat N-bit destination string (§3.2.3).
	HeaderFlat DestCoding = iota
	// HeaderIval is the interval-coded per-subtree range encoding.
	HeaderIval
)

// String renders the coding for flags and table notes.
func (c DestCoding) String() string {
	switch c {
	case HeaderFlat:
		return "flat"
	case HeaderIval:
		return "ival"
	default:
		return fmt.Sprintf("DestCoding(%d)", int(c))
	}
}

// DefaultParams returns the paper's default system parameters (§4.1,
// reconstructed — see DESIGN.md §5).
func DefaultParams() Params {
	return Params{
		OHostSend:     100,
		OHostRecv:     100,
		ONISend:       100,
		ONIRecv:       100,
		BusMBps:       266,
		CycleNS:       10,
		PacketFlits:   128,
		BufferFlits:   16,
		RoutingDelay:  1,
		CrossbarDelay: 1,
		LinkDelay:     1,

		FaultDetectCycles: 2_000,
		StallCycles:       200_000,
	}
}

// WithR returns a copy of p with the NI overheads set so that
// R = o_h / o_ni equals r (paper §4.2.1 sweeps R by varying o_ni).
func (p Params) WithR(r float64) Params {
	if r <= 0 {
		panic("sim: R must be positive")
	}
	oni := event.Time(float64(p.OHostSend)/r + 0.5)
	if oni < 1 {
		oni = 1
	}
	p.ONISend = oni
	p.ONIRecv = oni
	return p
}

// R reports the o_h/o_ni ratio of p.
func (p Params) R() float64 { return float64(p.OHostSend) / float64(p.ONISend) }

// BusCycles returns the DMA occupancy in cycles for a transfer of the given
// number of bytes, rounded up.
func (p Params) BusCycles(bytes int) event.Time {
	// bytes/cycle = MBps * 1e6 * ns * 1e-9 = MBps*ns/1000, so
	// cycles = ceil(bytes * 1000 / (MBps*ns)).
	num := bytes * 1000
	den := p.BusMBps * p.CycleNS
	return event.Time((num + den - 1) / den)
}

// Packets returns how many packets a payload of msgFlits flits needs.
func (p Params) Packets(msgFlits int) int {
	if msgFlits <= 0 {
		return 0
	}
	return (msgFlits + p.PacketFlits - 1) / p.PacketFlits
}

// Validate rejects nonsensical parameter combinations early.
func (p Params) Validate() error {
	switch {
	case p.OHostSend < 0 || p.OHostRecv < 0 || p.ONISend < 0 || p.ONIRecv < 0:
		return fmt.Errorf("sim: negative software overhead")
	case p.BusMBps <= 0 || p.CycleNS <= 0:
		return fmt.Errorf("sim: bus bandwidth and cycle time must be positive")
	case p.PacketFlits <= 0:
		return fmt.Errorf("sim: packet size must be positive")
	case p.BufferFlits <= 0:
		return fmt.Errorf("sim: buffer size must be positive")
	case p.RoutingDelay < 0 || p.CrossbarDelay < 0 || p.LinkDelay < 1:
		return fmt.Errorf("sim: invalid pipeline delays")
	case p.NIInjectBufferPackets < 0:
		return fmt.Errorf("sim: negative NI buffer bound")
	case p.DestCoding != HeaderFlat && p.DestCoding != HeaderIval:
		return fmt.Errorf("sim: unknown destination coding %d", p.DestCoding)
	}
	return nil
}
