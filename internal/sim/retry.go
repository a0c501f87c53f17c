package sim

import (
	"fmt"
	"sort"

	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Replanner rebuilds a multicast plan for the undelivered remainder of a
// timed-out or partially failed message, against the routing state in
// force at re-plan time (i.e. post-reconfiguration tables once the
// detection window has elapsed). Each multicast scheme supplies one; the
// traffic layer adapts its Scheme.Plan.
type Replanner func(rt *updown.Routing, src topology.NodeID, dests []topology.NodeID, msgFlits int) (*Plan, error)

// RetryPolicy parameterizes the NI-level reliable-delivery protocol: a
// per-attempt delivery deadline plus exponential backoff between
// retransmissions of the failed remainder.
type RetryPolicy struct {
	// Timeout is the per-attempt deadline: an attempt that has not
	// completed Timeout cycles after initiation is aborted (its worms torn
	// down, its undelivered destinations failed) and handed to the backoff
	// schedule.
	Timeout event.Time
	// Backoff is the wait before the first retransmission; attempt k waits
	// Backoff * BackoffFactor^(k-1).
	Backoff event.Time
	// BackoffFactor is the exponential base (>= 1).
	BackoffFactor int
	// MaxAttempts bounds total attempts, the initial send included.
	MaxAttempts int
}

// DefaultRetryPolicy is tuned for the paper's cycle scale: the timeout
// comfortably exceeds a healthy multicast's completion time, and the
// backoff ladder keeps the worst-case wait under the stall watchdog's
// default window.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Timeout: 30_000, Backoff: 2_000, BackoffFactor: 2, MaxAttempts: 6}
}

func (p RetryPolicy) validate() error {
	if p.Timeout <= 0 || p.Backoff < 0 || p.BackoffFactor < 1 || p.MaxAttempts < 1 {
		return fmt.Errorf("sim: invalid retry policy %+v", p)
	}
	return nil
}

// Delivery is the outcome of one reliable multicast: deliveries merged
// over every attempt, the permanently failed remainder, and the attempt
// count.
type Delivery struct {
	Source topology.NodeID
	Dests  []topology.NodeID
	Flits  int

	Attempts  int
	Initiated event.Time
	// Completed is when the protocol finished: every destination
	// delivered, or the remainder abandoned (exhausted attempts, or an
	// un-replannable remainder).
	Completed event.Time
	// DoneAt merges each destination's first successful host delivery
	// across attempts.
	DoneAt map[topology.NodeID]event.Time
	// Failed lists destinations never delivered, ascending.
	Failed []topology.NodeID
}

// Delivered returns the count of destinations that got the message.
func (d *Delivery) Delivered() int { return len(d.DoneAt) }

// DeliveredAll reports full delivery.
func (d *Delivery) DeliveredAll() bool { return len(d.Failed) == 0 && len(d.DoneAt) == len(d.Dests) }

// Latency returns completion latency of the whole reliable operation —
// under faults, the recovery latency including timeouts and retries.
func (d *Delivery) Latency() event.Time { return d.Completed - d.Initiated }

// SendReliable runs plan under the NI-level reliable-delivery protocol:
// the message is sent at time at; if the attempt times out or completes
// with failed destinations, the failed remainder is re-planned via replan
// (against current routing tables) and retransmitted after exponential
// backoff, up to pol.MaxAttempts attempts. onDone (optional) fires when
// the protocol finishes. The returned Delivery is filled in as the
// simulation advances; read it after Drain.
func (n *Network) SendReliable(plan *Plan, flits int, at event.Time, replan Replanner, pol RetryPolicy, onDone func(*Delivery)) (*Delivery, error) {
	if err := pol.validate(); err != nil {
		return nil, err
	}
	if replan == nil {
		return nil, fmt.Errorf("sim: SendReliable requires a replanner")
	}
	d := &Delivery{
		Source:    plan.Source,
		Dests:     append([]topology.NodeID(nil), plan.Dests...),
		Flits:     flits,
		Initiated: at,
		DoneAt:    make(map[topology.NodeID]event.Time, len(plan.Dests)),
	}

	finish := func() {
		d.Completed = n.queue.Now()
		sort.Slice(d.Failed, func(i, j int) bool { return d.Failed[i] < d.Failed[j] })
		if onDone != nil {
			onDone(d)
		}
	}

	var attempt func(p *Plan, sendAt, wait event.Time) error
	attempt = func(p *Plan, sendAt, wait event.Time) error {
		d.Attempts++
		m, err := n.Send(p, flits, sendAt, func(m *Message) {
			for node, t := range m.DoneAt {
				if _, ok := d.DoneAt[node]; !ok {
					d.DoneAt[node] = t
				}
			}
			retry := m.FailedDests()
			if len(retry) == 0 {
				finish()
				return
			}
			if d.Attempts >= pol.MaxAttempts {
				d.Failed = append(d.Failed, retry...)
				finish()
				return
			}
			n.Schedule(n.queue.Now()+wait, func() {
				n.markProgress()
				p2, err := replan(n.rt, d.Source, retry, flits)
				if err != nil {
					// The remainder cannot be planned at all (e.g. the
					// survivors are across a partition): abandon it.
					d.Failed = append(d.Failed, retry...)
					finish()
					return
				}
				// Scheduling from inside an event: errors here are plan
				// bugs, surfaced by failing the remainder.
				if err := attempt(p2, n.queue.Now(), wait*event.Time(pol.BackoffFactor)); err != nil {
					d.Failed = append(d.Failed, retry...)
					finish()
				}
			})
		})
		if err != nil {
			return err
		}
		n.queue.Post(sendAt+pol.Timeout, evMsgTimeout, m, 0)
		return nil
	}
	if err := attempt(plan, at, pol.Backoff); err != nil {
		return nil, err
	}
	return d, nil
}

// RunReliable sends one reliable multicast at the current time, drains
// the network, and returns the outcome. The fault-injection analogue of
// RunSingle.
func (n *Network) RunReliable(plan *Plan, flits int, replan Replanner, pol RetryPolicy) (*Delivery, error) {
	d, err := n.SendReliable(plan, flits, n.queue.Now(), replan, pol, nil)
	if err != nil {
		return nil, err
	}
	if err := n.Drain(0); err != nil {
		return nil, err
	}
	return d, nil
}
