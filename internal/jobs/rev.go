package jobs

import (
	"context"
	"math"
	"sync"
	"time"
)

// NoRev is the "since" of a wait that names no revision: no revision
// exceeds it, so such a wait wakes at the terminal transition only.
const NoRev uint64 = math.MaxUint64

// Revision is a job record's change counter plus the wake-up for waiters
// parked on it — a condition variable that composes with a timer and a
// request context in one select. Every Record holds one, guarded by its
// tier's mutex: Table.Transition and Record.Touch Bump it on every change
// a status document can show (state, progress, profile, assignment; not
// the span log), Table.WaitTimeout Awaits it for the ?wait=D&rev=N
// long-poll. With nobody parked a Bump is one increment.
type Revision struct {
	n uint64
	// changed is closed and dropped by the next Bump; nil while no
	// revision-watching waiter is parked.
	changed chan struct{}
}

// N is the current revision. Callers hold the guarding mutex.
func (r *Revision) N() uint64 { return r.n }

// Bump advances the revision and releases every parked waiter. Callers
// hold the guarding mutex.
func (r *Revision) Bump() {
	r.n++
	if r.changed != nil {
		close(r.changed)
		r.changed = nil
	}
}

// Await parks until the revision exceeds since, done closes (the job
// turned terminal), d elapses or ctx ends, whichever is first. The caller
// holds mu, which guards r; Await releases it while parked and holds it
// again on return, so the caller snapshots the status it woke for in the
// same critical section. A non-positive d returns at once.
func (r *Revision) Await(ctx context.Context, mu *sync.Mutex, done <-chan struct{}, d time.Duration, since uint64) {
	if d <= 0 {
		return
	}
	var t *time.Timer
	for r.n <= since && !closed(done) {
		// A nil channel never fires: a waiter that named no revision has
		// no use for one, and allocates none for Bump to close.
		var changed <-chan struct{}
		if since != NoRev {
			if r.changed == nil {
				r.changed = make(chan struct{})
			}
			changed = r.changed
		}
		if t == nil {
			t = time.NewTimer(d)
			defer t.Stop()
		}
		mu.Unlock()
		news := false
		select {
		case <-changed:
			news = true
		case <-done:
		case <-t.C:
		case <-ctx.Done():
		}
		mu.Lock()
		if !news {
			return
		}
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
