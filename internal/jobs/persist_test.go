package jobs

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{}) // SyncAlways: crash images are complete
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// copyDir snapshots a store directory — the moral equivalent of the page
// cache the kernel would flush after a SIGKILL (SyncAlways means every
// acknowledged event is already in the files).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestartServesTerminalHistory: a pool with a store runs jobs to
// completion; a second pool over the same directory (clean restart) must
// serve their statuses and results from disk and keep allocating fresh
// job IDs past the recovered ones.
func TestRestartServesTerminalHistory(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.restart_hist", fake)
	dir := t.TempDir()

	s1 := openStore(t, dir)
	p1 := NewPool(Options{Workers: 2, QueueDepth: 8, Store: s1})
	idDone, err := submit(p1, annealBundle(t, "fake.restart_hist", 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := p1.Wait(idDone); err != nil || st.State != StateDone {
		t.Fatalf("job: %v / %+v", err, st)
	}
	resBefore, err := p1.Result(idDone)
	if err != nil {
		t.Fatal(err)
	}
	idFail, err := submit(p1, annealBundle(t, "no.such_engine", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	stFail, _ := p1.Wait(idFail)
	idCancel, idBlocked := persistCancelPair(t, p1)
	p1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	p2 := NewPool(Options{Workers: 2, QueueDepth: 8, Store: s2})
	defer func() { p2.Close(); s2.Close() }()

	st, err := p2.Status(idDone)
	if err != nil || st.State != StateDone || st.Engine != "fake.restart_hist" {
		t.Fatalf("recovered status: %v / %+v", err, st)
	}
	resAfter, err := p2.Result(idDone)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resBefore.Entries, resAfter.Entries) || resBefore.Engine != resAfter.Engine {
		t.Fatalf("recovered result differs:\n before %+v\n after  %+v", resBefore, resAfter)
	}
	if st, err := p2.Status(idFail); err != nil || st.State != StateFailed || st.Error != stFail.Error {
		t.Fatalf("recovered failure: %v / %+v (want error %q)", err, st, stFail.Error)
	}
	if st, err := p2.Status(idCancel); err != nil || st.State != StateCanceled {
		t.Fatalf("recovered cancel: %v / %+v", err, st)
	}
	if st, err := p2.Wait(idBlocked); err != nil || st.State != StateDone {
		t.Fatalf("recovered completed job: %v / %+v", err, st)
	}

	// The memory cache rehydrated from disk: an identical submission is
	// served without re-executing.
	execsBefore := fake.execs.Load()
	idAgain, err := submit(p2, annealBundle(t, "fake.restart_hist", 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := p2.Wait(idAgain); !st.CacheHit {
		t.Fatalf("post-restart duplicate not served from rehydrated cache: %+v", st)
	}
	if fake.execs.Load() != execsBefore {
		t.Fatal("post-restart duplicate re-executed")
	}
	if !strings.HasPrefix(idAgain, "job-") || idAgain <= idDone {
		t.Fatalf("post-restart ID %q does not continue the sequence past %q", idAgain, idDone)
	}
	if recovered, requeued := p2.met.recovered.Value(), p2.met.requeued.Value(); recovered != 6 || requeued != 0 {
		t.Fatalf("recovered=%d requeued=%d, want 6/0 (clean shutdown left no live jobs)", recovered, requeued)
	}
}

// persistCancelPair journals a canceled job and a queued-then-completed
// job into the pool's store (both terminal before the clean shutdown) and
// returns their IDs.
func persistCancelPair(t *testing.T, p *Pool) (canceled, completed string) {
	t.Helper()
	blocker := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2)}
	registerFake(t, "fake.restart_pair", blocker)
	// Both workers block on b1/b2, so the jobs behind them stay queued
	// long enough to cancel one.
	b1, err := submit(p, annealBundle(t, "fake.restart_pair", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := submit(p, annealBundle(t, "fake.restart_pair", 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.ran
	<-blocker.ran
	cancelID, err := submit(p, annealBundle(t, "fake.restart_pair", 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cancel(context.Background(), cancelID); err != nil {
		t.Fatal(err)
	}
	queuedID, err := submit(p, annealBundle(t, "fake.restart_pair", 50, 4))
	if err != nil {
		t.Fatal(err)
	}
	close(blocker.block)
	for _, id := range []string{b1, b2, queuedID} {
		if st, err := p.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
	}
	return cancelID, queuedID
}

// TestCrashRequeuesAcceptedWork is the acceptance-criterion crash test at
// the pool level: jobs queued and running when the process dies are
// requeued on restart and re-run to completion under their original IDs,
// with counts identical to what the lost run would have produced (the
// execution is deterministic in the cache key).
func TestCrashRequeuesAcceptedWork(t *testing.T) {
	// ran is buffered for every Execute across both pool lives (one
	// consumed below, one during the first life's drain, two re-runs).
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 8)}
	registerFake(t, "fake.crash_requeue", fake)
	dir := t.TempDir()
	crashDir := t.TempDir()

	s1 := openStore(t, dir)
	p1 := NewPool(Options{Workers: 1, QueueDepth: 8, MaxShards: 4, Store: s1})
	running, err := submit(p1, annealBundle(t, "fake.crash_requeue", 50, 11))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran // journaled "started", blocked inside Execute
	// The queued job pins an explicit shard grant; the pin must survive
	// the crash with it.
	queued, err := submitWith(p1, annealBundle(t, "fake.crash_requeue", 50, 12), SubmitOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// SIGKILL: snapshot the store directory exactly as the crash would
	// leave it — the running job never journals a terminal event.
	copyDir(t, dir, crashDir)
	close(fake.block) // hygiene: let the abandoned life drain
	p1.Close()
	s1.Close()
	execsAfterFirstLife := fake.execs.Load()

	s2 := openStore(t, crashDir)
	p2 := NewPool(Options{Workers: 1, QueueDepth: 8, MaxShards: 4, Store: s2})
	defer func() { p2.Close(); s2.Close() }()
	if requeued := p2.met.requeued.Value(); requeued != 2 {
		t.Fatalf("requeued = %d, want 2 (one running + one queued at crash)", requeued)
	}
	for _, id := range []string{running, queued} {
		st, err := p2.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("requeued job %s: %v / %+v", id, err, st)
		}
		if st.CacheHit || st.Coalesced {
			t.Fatalf("requeued job %s must re-execute, got %+v", id, st)
		}
	}
	if st, _ := p2.Status(queued); st.Shards != 2 {
		t.Fatalf("pinned shard grant lost across the crash: granted %d, want 2", st.Shards)
	}
	if got := fake.execs.Load() - execsAfterFirstLife; got != 2 {
		t.Fatalf("restart executed %d jobs, want 2", got)
	}
	// Determinism across the crash: the fake derives entries from the
	// seed, so the re-run result equals what the first life's completed
	// twin (same bundle, different pool) produced.
	res, err := p2.Result(running)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries[0].Index != 11%16 {
		t.Fatalf("re-run result drifted: %+v", res.Entries)
	}
}

// TestRecoveryToleratesTornJournalTail: a partial final journal line (the
// crash happened mid-append) must not fail pool construction nor drop the
// completed lines before it.
func TestRecoveryToleratesTornJournalTail(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.torn_tail", fake)
	dir := t.TempDir()

	s1 := openStore(t, dir)
	p1 := NewPool(Options{Workers: 1, QueueDepth: 4, Store: s1})
	id, err := submit(p1, annealBundle(t, "fake.torn_tail", 50, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := p1.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("job: %v / %+v", err, st)
	}
	p1.Close()
	s1.Close()

	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"submitted","job":"job-00`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir)
	p2 := NewPool(Options{Workers: 1, QueueDepth: 4, Store: s2})
	defer func() { p2.Close(); s2.Close() }()
	if st, err := p2.Status(id); err != nil || st.State != StateDone {
		t.Fatalf("recovered status after torn tail: %v / %+v", err, st)
	}
	if res, err := p2.Result(id); err != nil || len(res.Entries) != 2 {
		t.Fatalf("recovered result after torn tail: %v / %+v", err, res)
	}
}

// TestCancelCoalescedWaiterDetaches is the coalesced-cancel regression
// test, direction one: canceling a duplicate attached to a running
// primary must detach exactly that waiter — the primary keeps running,
// sheds the reference (no unbounded retention under submit/cancel churn
// against a long-running primary), and every other waiter still completes
// with the primary's result.
func TestCancelCoalescedWaiterDetaches(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2)}
	registerFake(t, "fake.cancel_waiter", fake)
	pool := NewPool(Options{Workers: 1, QueueDepth: 2})
	defer pool.Close()

	primary, err := submit(pool, annealBundle(t, "fake.cancel_waiter", 50, 9))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	w1, err := submit(pool, annealBundle(t, "fake.cancel_waiter", 50, 9))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := submit(pool, annealBundle(t, "fake.cancel_waiter", 50, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Cancel(context.Background(), w1); err != nil {
		t.Fatalf("canceling a coalesced duplicate: %v", err)
	}
	// The waiter is terminal immediately — not parked until the primary
	// finishes — and the primary no longer references it.
	if st, err := pool.Status(w1); err != nil || st.State != StateCanceled {
		t.Fatalf("canceled waiter: %v / %+v", err, st)
	}
	if _, err := pool.Result(w1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled waiter result: %v, want ErrCanceled", err)
	}
	pool.mu.Lock()
	pj := pool.jobs[primary]
	nWaiters := len(pj.waiters)
	w1Primary := pool.jobs[w1].primary
	pool.mu.Unlock()
	if nWaiters != 1 {
		t.Fatalf("primary retains %d waiters after cancel, want 1 (leak)", nWaiters)
	}
	if w1Primary != nil {
		t.Fatal("canceled waiter still backlinks the primary")
	}
	if st, err := pool.Status(primary); err != nil || st.State != StateRunning {
		t.Fatalf("canceling a waiter must not touch the primary: %v / %+v", err, st)
	}

	close(fake.block)
	for _, id := range []string{primary, w2} {
		st, err := pool.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
		if res, err := pool.Result(id); err != nil || len(res.Entries) != 2 {
			t.Fatalf("job %s result: %v / %+v", id, err, res)
		}
	}
	if st, _ := pool.Status(w1); st.State != StateCanceled {
		t.Fatalf("canceled waiter resurrected: %+v", st)
	}
	if got := fake.execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if m := pool.met; m.canceled.Value() != 1 || m.completed.Value() != 2 || m.coalesced.Value() != 2 || m.failed.Value() != 0 {
		t.Fatalf("canceled %d, completed %d, coalesced %d, failed %d; want 1, 2, 2, 0",
			m.canceled.Value(), m.completed.Value(), m.coalesced.Value(), m.failed.Value())
	}
}

// TestPrimaryTerminalPropagatesAroundCanceledWaiter is direction two: a
// primary reaching a terminal state (here: failure) must propagate it to
// every waiter still attached, while a previously canceled waiter keeps
// its canceled state — neither hung nor overwritten.
func TestPrimaryTerminalPropagatesAroundCanceledWaiter(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2), fail: true}
	registerFake(t, "fake.fail_waiters", fake)
	pool := NewPool(Options{Workers: 1, QueueDepth: 2})
	defer pool.Close()

	primary, err := submit(pool, annealBundle(t, "fake.fail_waiters", 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	w1, err := submit(pool, annealBundle(t, "fake.fail_waiters", 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := submit(pool, annealBundle(t, "fake.fail_waiters", 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Cancel(context.Background(), w1); err != nil {
		t.Fatal(err)
	}
	close(fake.block)

	stP, err := pool.Wait(primary)
	if err != nil || stP.State != StateFailed || stP.Error == "" {
		t.Fatalf("primary: %v / %+v", err, stP)
	}
	stW2, err := pool.Wait(w2)
	if err != nil || stW2.State != StateFailed {
		t.Fatalf("live waiter: %v / %+v", err, stW2)
	}
	if stW2.Error != stP.Error {
		t.Fatalf("waiter error %q, want the primary's %q", stW2.Error, stP.Error)
	}
	if !stW2.Coalesced {
		t.Fatal("failed waiter lost its coalesced mark")
	}
	if st, _ := pool.Status(w1); st.State != StateCanceled || st.Error != "" {
		t.Fatalf("canceled waiter must stay canceled, got %+v", st)
	}
	if got := fake.execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if failed, canceled := pool.met.failed.Value(), pool.met.canceled.Value(); failed != 2 || canceled != 1 {
		t.Fatalf("failed %d, canceled %d; want 2 and 1", failed, canceled)
	}
}

// TestDrainingPoolRejectsSubmits: Close drains in-flight and queued work,
// and a Submit racing the drain fails fast with ErrClosed instead of
// hanging on the dying queue.
func TestDrainingPoolRejectsSubmits(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2)}
	registerFake(t, "fake.drain", fake)
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})

	running, err := submit(pool, annealBundle(t, "fake.drain", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	queued, err := submit(pool, annealBundle(t, "fake.drain", 50, 2))
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() { pool.Close(); close(closed) }()
	// Wait for Close to flip the flag (it then blocks on the worker).
	for {
		pool.mu.Lock()
		c := pool.closed
		pool.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := submit(pool, annealBundle(t, "fake.drain", 50, 3))
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("submit during drain: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit during drain hung instead of returning ErrClosed")
	}

	close(fake.block)
	<-closed
	// Draining executed the queued job rather than dropping it.
	for _, id := range []string{running, queued} {
		if st, err := pool.Status(id); err != nil || st.State != StateDone {
			t.Fatalf("job %s after drain: %v / %+v", id, err, st)
		}
	}
}

// TestListJobs covers the history listing: newest first, state filter,
// limit cap.
func TestListJobs(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2)}
	registerFake(t, "fake.list_blocked", fake)
	done := &fakeBackend{}
	registerFake(t, "fake.list_done", done)
	pool := NewPool(Options{Workers: 1, QueueDepth: 8, CacheSize: -1})
	defer pool.Close()

	runningID, err := submit(pool, annealBundle(t, "fake.list_blocked", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	var doneIDs []string
	for seed := uint64(2); seed < 5; seed++ {
		id, err := submit(pool, annealBundle(t, "fake.list_done", 50, seed))
		if err != nil {
			t.Fatal(err)
		}
		doneIDs = append(doneIDs, id)
	}
	cancelID := doneIDs[2]
	if _, err := pool.Cancel(context.Background(), cancelID); err != nil {
		t.Fatal(err)
	}
	close(fake.block)
	for _, id := range append(doneIDs[:2], runningID) {
		if st, err := pool.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
	}

	all := pool.List("", 0)
	if len(all) != 4 {
		t.Fatalf("List(all) = %d jobs, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID < all[i].ID {
			t.Fatalf("List not newest-first: %s before %s", all[i-1].ID, all[i].ID)
		}
	}
	if got := pool.List(StateDone, 0); len(got) != 3 {
		t.Fatalf("List(done) = %d, want 3", len(got))
	}
	if got := pool.List(StateCanceled, 0); len(got) != 1 || got[0].ID != cancelID {
		t.Fatalf("List(canceled) = %+v", got)
	}
	if got := pool.List("", 2); len(got) != 2 {
		t.Fatalf("List(limit 2) = %d, want 2", len(got))
	}
}
