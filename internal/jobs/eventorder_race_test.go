package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/bundle"
	"repro/internal/jobs/store"
)

// TestPoolEventOrderUnderConcurrentSubmitCancel holds a Pool's journal to
// the grammar the dispatcher's is held to (fleet's
// TestEventOrderUnderConcurrentSubmitCancel): submitted first, exactly one
// terminal line, nothing but forget after it, and the journal's verdict is
// the state the pool reported. Both tiers write the line inside the move,
// under the one mutex, so the order is the same property on both; this
// races submits, cancels and a worker over a blocked engine, under -race,
// and reads the file back.
func TestPoolEventOrderUnderConcurrentSubmitCancel(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{})} // hold every execution so cancels race a real queue
	registerFake(t, "fake.pool_evorder", fake)
	rec := openJournal(t, store.Options{Sync: store.SyncAlways})
	pool := NewPool(Options{Workers: 2, QueueDepth: 64, CacheSize: -1, Store: rec.st})
	var closeOnce sync.Once
	shutdown := func() { closeOnce.Do(pool.Close) }
	defer shutdown()

	// Distinct seeds ⇒ distinct cache keys: every submission is its own
	// job with its own journal lifecycle.
	const n = 24
	bundles := make([]*bundle.Bundle, n)
	for i := range bundles {
		bundles[i] = gateBundle(t, "fake.pool_evorder", 64, uint64(i+1))
	}
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range bundles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := pool.Submit(bundles[i], SubmitOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = sub.ID
			if i%2 == 1 {
				// Chase every odd submission with a cancel, racing the
				// workers. Losing the race (the job already running) is a
				// legal outcome; only the grammar below must hold.
				if _, err := pool.Cancel(context.Background(), sub.ID); err != nil && !errors.Is(err, ErrConflict) {
					errs[i] = err
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	close(fake.block) // release the held executions; survivors finish

	final := make(map[string]State, n)
	for _, id := range ids {
		fin, err := pool.Wait(id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if fin.State != StateDone && fin.State != StateCanceled {
			t.Fatalf("job %s finished %s (%s), want done or canceled", id, fin.State, fin.Error)
		}
		final[id] = fin.State
	}
	shutdown()

	byJob := map[string][]store.Event{}
	for _, ev := range rec.events(t) {
		byJob[ev.Job] = append(byJob[ev.Job], ev)
	}
	terminalOf := map[string]State{store.EvDone: StateDone, store.EvFailed: StateFailed, store.EvCanceled: StateCanceled}
	for _, id := range ids {
		evs := byJob[id]
		if len(evs) == 0 || evs[0].T != store.EvSubmitted {
			t.Fatalf("job %s: journal lines %v, want submitted first", id, eventTypes(evs))
		}
		terminal := -1
		for i, ev := range evs[1:] {
			_, isTerminal := terminalOf[ev.T]
			switch {
			case ev.T == store.EvSubmitted:
				t.Errorf("job %s: a second submitted line", id)
			case isTerminal && terminal >= 0:
				t.Errorf("job %s: second terminal line %s after %s", id, ev.T, evs[terminal].T)
			case isTerminal:
				terminal = i + 1
			case terminal >= 0 && ev.T != store.EvForget:
				t.Errorf("job %s: %s line after terminal %s — journal order diverged from move order", id, ev.T, evs[terminal].T)
			}
		}
		if terminal < 0 {
			t.Fatalf("job %s: no terminal line in %v", id, eventTypes(evs))
		}
		if got := terminalOf[evs[terminal].T]; got != final[id] {
			t.Errorf("job %s: journal says %s, pool reported %s", id, got, final[id])
		}
	}
}
