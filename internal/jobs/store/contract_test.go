package store_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
	"repro/internal/result"
)

// blockedEngine holds every execution until block closes and says on ran
// when one began.
type blockedEngine struct {
	name  string
	block chan struct{}
	ran   chan struct{}
}

func (e *blockedEngine) Name() string { return e.name }

func (e *blockedEngine) Execute(*bundle.Bundle, backend.ExecOptions) (*result.Result, error) {
	e.ran <- struct{}{}
	<-e.block
	return &result.Result{Engine: e.name, Samples: 1, Entries: []result.Entry{{Bitstring: "0000", Count: 1}}}, nil
}

func contractBundle(t *testing.T, engine string, seed uint64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.39}, []float64{1.17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate(engine, 16, seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// crashImage is what a restart after SIGKILL at this instant would replay:
// the journal file as it is now, copied aside (a second Open of the live
// directory would be free to truncate a line it caught half-written) and
// replayed by a fresh store.
func crashImage(t *testing.T, dir string) map[string]*store.Record {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	img := t.TempDir()
	if err := os.WriteFile(filepath.Join(img, "journal.jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(img, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := map[string]*store.Record{}
	for _, r := range st.Records() {
		recs[r.Job] = r
	}
	return recs
}

// TestJournalContract is the durability decision of the package doc, held
// against both tiers with the fsync barrier in the test's hand:
//
//   - acknowledged ⇒ durable: Submit and Cancel do not return while the
//     barrier is held, and do once it is released;
//   - readable ⇒ written: the moment a status shows a move — queued, an
//     assignment, running, canceled, done — a crash image replays it;
//   - no reader and no mover waits: Status, List, Stats, a worker's
//     queued → running and its done all complete with the barrier held.
func TestJournalContract(t *testing.T) {
	for _, tier := range []string{"pool", "dispatcher"} {
		t.Run(tier, func(t *testing.T) {
			hold := store.InstallBarrier(t).Hold

			engine := &blockedEngine{name: "fake.contract_" + tier, block: make(chan struct{}), ran: make(chan struct{}, 1)}
			backend.Register(engine.name, func() backend.Backend { return engine })
			t.Cleanup(func() { backend.Unregister(engine.name) })
			var unblockOnce sync.Once
			unblock := func() { unblockOnce.Do(func() { close(engine.block) }) }
			defer unblock() // a failed run must not leave the tiers' Close waiting on the engine

			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })

			// One executor, so that a second job stays queued behind the
			// blocked first and can be canceled.
			var svc jobs.Service
			if tier == "pool" {
				pool := jobs.NewPool(jobs.Options{Workers: 1, CacheSize: -1, Store: st})
				t.Cleanup(pool.Close)
				svc = pool
			} else {
				worker := jobs.NewPool(jobs.Options{Workers: 1, CacheSize: -1})
				srv := httptest.NewServer(jobs.NewHandler(worker))
				d, err := fleet.New(fleet.Options{Workers: []string{srv.URL}, Store: st, RequestTimeout: 5 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close(); srv.Close(); worker.Close() })
				svc = d
			}

			// bounded runs a call that must not wait for the barrier.
			bounded := func(what string, fn func()) {
				t.Helper()
				done := make(chan struct{})
				go func() { defer close(done); fn() }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s waits behind the held fsync barrier", what)
				}
			}
			status := func(id string) (s jobs.Status) {
				t.Helper()
				bounded("Status", func() {
					var err error
					if s, err = svc.WaitTimeout(context.Background(), id, 0, jobs.NoRev); err != nil {
						t.Errorf("status %s: %v", id, err)
					}
				})
				return s
			}
			// await watches a job (the long-poll: a reader too) until its
			// snapshot satisfies ok.
			await := func(id, what string, ok func(jobs.Status) bool) jobs.Status {
				t.Helper()
				for s := status(id); ; {
					if ok(s) {
						return s
					}
					if s.State.Terminal() {
						t.Fatalf("job %s ended %s (%s) before %s", id, s.State, s.Error, what)
					}
					bounded("a watch", func() {
						s, _ = svc.WaitTimeout(context.Background(), id, time.Second, s.Rev)
					})
				}
			}
			// acked is an acknowledgment in flight.
			type acked struct {
				st  jobs.Status
				err error
			}
			pending := func(what string, c <-chan acked) {
				t.Helper()
				select {
				case a := <-c:
					t.Fatalf("%s returned (%+v, %v) with the fsync barrier of its line held", what, a.st.State, a.err)
				case <-time.After(30 * time.Millisecond):
				}
			}
			settled := func(what string, c <-chan acked) jobs.Status {
				t.Helper()
				select {
				case a := <-c:
					if a.err != nil {
						t.Fatalf("%s: %v", what, a.err)
					}
					return a.st
				case <-time.After(10 * time.Second):
					t.Fatalf("%s did not return once the barrier was released", what)
					return jobs.Status{}
				}
			}

			submit := func(seed uint64) <-chan acked {
				c, b := make(chan acked, 1), contractBundle(t, engine.name, seed)
				go func() {
					s, err := svc.Submit(b, jobs.SubmitOptions{})
					c <- acked{s, err}
				}()
				return c
			}
			// listed waits until the tier lists n jobs and returns the
			// newest: a submission is readable before it is acknowledged.
			listed := func(n int) string {
				t.Helper()
				var all []jobs.Status
				for len(all) < n {
					bounded("List", func() { all = svc.List("", 0) })
				}
				return all[0].ID
			}
			image := func(id string, ok func(*store.Record) bool, shown string) {
				t.Helper()
				if rec := crashImage(t, dir)[id]; rec == nil || !ok(rec) {
					t.Fatalf("status shows job %s %s; a crash now would replay %+v", id, shown, rec)
				}
			}
			// started follows the first job to running, with the barrier
			// held: a dispatcher's assignment on the way, then the move.
			started := func(id string) {
				t.Helper()
				<-engine.ran
				if tier == "dispatcher" {
					s := await(id, "an assignment", func(s jobs.Status) bool { return s.Worker != "" && s.Remote != "" })
					image(id, func(r *store.Record) bool { return r.Worker == s.Worker && r.Remote == s.Remote }, "assigned to "+s.Worker)
				}
				await(id, "running", func(s jobs.Status) bool { return s.State == jobs.StateRunning })
				image(id, func(r *store.Record) bool { return r.State == store.StateRunning }, "running")
			}

			// A submission is readable, and written, at once; acknowledged
			// only past the barrier. A pool's worker takes the job without
			// waiting for either; a dispatcher forwards what it acknowledged.
			release := hold()
			defer func() { release() }()
			submitted := submit(1)
			first := listed(1)
			status(first)
			bounded("Stats", func() { svc.StatsDoc() })
			image(first, func(r *store.Record) bool { return len(r.Bundle) > 0 }, "queued")
			if tier == "pool" {
				started(first)
			}
			pending("Submit", submitted)
			release()
			if s := settled("Submit", submitted); s.ID != first {
				t.Fatalf("Submit acknowledged %s, List showed %s", s.ID, first)
			}

			// From here on the barrier stays held: nothing below may wait
			// for an fsync but the two acknowledgments.
			release = hold()
			if tier == "dispatcher" {
				started(first)
			}
			submitted = submit(2) // stays queued: the one executor is busy
			second := listed(2)
			pending("Submit", submitted)
			canceled := make(chan acked, 1)
			go func() {
				s, err := svc.Cancel(context.Background(), second)
				canceled <- acked{s, err}
			}()
			await(second, "canceled", func(s jobs.Status) bool { return s.State == jobs.StateCanceled })
			image(second, func(r *store.Record) bool { return r.State == store.StateCanceled }, "canceled")

			unblock()
			await(first, "done", func(s jobs.Status) bool { return s.State == jobs.StateDone })
			image(first, func(r *store.Record) bool { return r.State == store.StateDone }, "done")

			pending("Submit", submitted)
			pending("Cancel", canceled)
			release()
			settled("Submit", submitted)
			if s := settled("Cancel", canceled); s.State != jobs.StateCanceled {
				t.Fatalf("Cancel acknowledged a job that is %s", s.State)
			}
			image(first, func(r *store.Record) bool { return r.State == store.StateDone }, "done, acknowledged")
			image(second, func(r *store.Record) bool { return r.State == store.StateCanceled }, "canceled, acknowledged")
		})
	}
}
