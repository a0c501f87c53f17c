// Package eventtest holds the closure-scheduling shim for tests and
// one-shot experiment scaffolding.
//
// Production code schedules through typed kinds — Register a Kind once
// and Post/PostAfter fixed-shape records — which keeps every pending
// event enumerable for the snapshot layer (event.PendingEvent,
// sim.Network.Checkpoint). A func() carried as an event actor is opaque
// to that enumeration: it cannot be serialized, so a checkpoint taken
// over one must be refused. Tests, however, often want a throwaway
// callback at a timestamp without minting a kind; these helpers post
// such callbacks as event.KindClosure, the one kind the dispatcher
// runs without a registered handler.
package eventtest

import "mcastsim/internal/event"

// At schedules fn on q at absolute time t.
func At(q *event.Queue, t event.Time, fn func()) {
	q.Post(t, event.KindClosure, fn, 0)
}

// After schedules fn on q delay cycles from now. A negative delay
// panics, matching PostAfter.
func After(q *event.Queue, delay event.Time, fn func()) {
	if delay < 0 {
		panic("event: negative delay")
	}
	q.Post(q.Now()+delay, event.KindClosure, fn, 0)
}
