package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
)

// TestEventOrderUnderConcurrentSubmitCancel stress-tests the claim the
// journaling discipline rests on: a transition writes its journal line
// under d.mu, inside the move, so the journal's per-job order always
// equals the in-memory transition order — even with submits, cancels,
// forwarder goroutines and poll watchers racing. Run under -race this
// also sweeps the write/commit handoff for data races. The journal is
// re-read after Close and every job's event sequence is checked against
// the lifecycle grammar and the dispatcher's final verdict. (jobs'
// TestPoolEventOrderUnderConcurrentSubmitCancel holds a Pool to the same.)
func TestEventOrderUnderConcurrentSubmitCancel(t *testing.T) {
	fake := registerFake(t, "fake.fleet_evorder")
	fake.block = make(chan struct{}) // hold every execution so cancels race real queues
	w1, w2 := startWorker(t, 1), startWorker(t, 1)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(w1, w2)
	opts.Store = st
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var closeOnce sync.Once
	shutdown := func() {
		closeOnce.Do(func() {
			d.Close()
			st.Close()
		})
	}
	defer shutdown()

	// Distinct seeds ⇒ distinct cache keys: no dedup, every submission is
	// its own job with its own journal lifecycle.
	const n = 24
	bundles := make([]*bundle.Bundle, n)
	for i := range bundles {
		bundles[i] = fleetBundle(t, "fake.fleet_evorder", uint64(i+1))
	}
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range bundles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := d.Submit(bundles[i], jobs.SubmitOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = sub.ID
			if i%2 == 1 {
				// Chase every odd submission with an immediate cancel,
				// racing the forwarder goroutine. Losing the race (the job
				// already running remotely, or terminal) is a legal
				// outcome; only the journal grammar below must hold.
				if _, err := d.Cancel(context.Background(), sub.ID); err != nil &&
					!errors.Is(err, jobs.ErrConflict) && !errors.Is(err, jobs.ErrNotFound) {
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

	final := make(map[string]jobs.State, n)
	for _, id := range ids {
		fin, err := d.Wait(id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if fin.State != jobs.StateDone && fin.State != jobs.StateCanceled {
			t.Fatalf("job %s finished %s (%s), want done or canceled", id, fin.State, fin.Error)
		}
		final[id] = fin.State
	}
	shutdown() // flush and fsync everything before reading the journal

	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	byJob := map[string][]store.Event{}
	for _, line := range splitLines(raw) {
		var ev store.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		byJob[ev.Job] = append(byJob[ev.Job], ev)
	}

	terminalOf := map[string]jobs.State{
		store.EvDone:     jobs.StateDone,
		store.EvFailed:   jobs.StateFailed,
		store.EvCanceled: jobs.StateCanceled,
	}
	for _, id := range ids {
		evs := byJob[id]
		if len(evs) == 0 {
			t.Fatalf("job %s has no journal events", id)
		}
		if evs[0].T != store.EvSubmitted {
			t.Errorf("job %s: first event is %s, want submitted", id, evs[0].T)
		}
		submitted, terminal := 0, -1
		sawAssigned := false
		for i, ev := range evs {
			switch ev.T {
			case store.EvSubmitted:
				submitted++
			case store.EvAssigned:
				sawAssigned = true
			case store.EvStarted:
				if !sawAssigned {
					t.Errorf("job %s: started before any assignment", id)
				}
			}
			if _, isTerminal := terminalOf[ev.T]; isTerminal {
				if terminal >= 0 {
					t.Errorf("job %s: second terminal event %s after %s — a canceled job must stay canceled", id, ev.T, evs[terminal].T)
				}
				terminal = i
			} else if terminal >= 0 && ev.T != store.EvForget {
				t.Errorf("job %s: event %s journaled after terminal %s — journal order diverged from transition order", id, ev.T, evs[terminal].T)
			}
		}
		if submitted != 1 {
			t.Errorf("job %s: %d submitted events, want 1", id, submitted)
		}
		if terminal < 0 {
			t.Fatalf("job %s: no terminal event in journal", id)
		}
		if got := terminalOf[evs[terminal].T]; got != final[id] {
			t.Errorf("job %s: journal says %s, dispatcher reported %s", id, got, final[id])
		}
	}
}

// splitLines splits journal bytes into non-empty lines.
func splitLines(raw []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range raw {
		if b == '\n' {
			if i > start {
				lines = append(lines, raw[start:i])
			}
			start = i + 1
		}
	}
	if start < len(raw) {
		lines = append(lines, raw[start:])
	}
	return lines
}
