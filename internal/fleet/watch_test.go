package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// eventOpts leave no cadence that could carry a job to completion by
// itself: probes are an hour apart and an unanswered watch parks for half
// a minute. A test on these options finishes promptly only if every
// remote transition is pushed to the dispatcher.
func eventOpts(workers ...*flakyWorker) Options {
	opts := fastOpts(workers...)
	opts.RequestTimeout = time.Minute
	opts.ProbeInterval = time.Hour
	return opts
}

// TestWatchRequestCounts: the dispatcher follows a remote job with
// revisioned long-polls, so the number of status requests a job costs its
// worker depends on how many times the job changes, not on how long it
// runs. A job held open for 300 ms costs at most 3 (→running, →done, one
// spare), where a 100 ms poll cadence paid 4–5; a job that finishes at
// once reaches done on the dispatcher with at most 2 and no timer in the
// path.
func TestWatchRequestCounts(t *testing.T) {
	fake := registerFake(t, "fake.fleet_watch_count")
	fake.block = make(chan struct{})
	fake.ran = make(chan struct{}, 4)
	w := startWorker(t, 1)
	d := newDispatcher(t, eventOpts(w))
	var once sync.Once
	release := func() { once.Do(func() { close(fake.block) }) }
	t.Cleanup(release) // registered last, so it runs before the pool's Close waits on the fake

	st, err := d.Submit(fleetBundle(t, "fake.fleet_watch_count", 1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	time.Sleep(300 * time.Millisecond) // the job's run time, as its worker sees it
	fake.block <- struct{}{}
	if fin, err := d.Wait(st.ID); err != nil || fin.State != jobs.StateDone {
		t.Fatalf("held job: %+v %v", fin, err)
	}
	if n := w.statusReqs.Load(); n > 3 {
		t.Fatalf("a 300 ms job cost its worker %d status requests, want ≤ 3", n)
	}

	release() // from here on the fake answers at once
	before := w.statusReqs.Load()
	st, err = d.Submit(fleetBundle(t, "fake.fleet_watch_count", 2), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := d.Wait(st.ID); err != nil || fin.State != jobs.StateDone {
		t.Fatalf("instant job: %+v %v", fin, err)
	}
	if n := w.statusReqs.Load() - before; n > 2 {
		t.Fatalf("an instant job cost its worker %d status requests, want ≤ 2", n)
	}
}

// TestCancelReleasesParkedWatch: DELETE on the dispatcher finishes a sweep
// locally even though its remote ranges cannot be preempted; the range
// watchers parked on the workers must let go at once rather than sit out
// their half-minute.
func TestCancelReleasesParkedWatch(t *testing.T) {
	fake := registerFake(t, "fake.fleet_watch_cancel")
	fake.block = make(chan struct{})
	fake.ran = make(chan struct{}, 8)
	w := startWorker(t, 1)
	d := newDispatcher(t, eventOpts(w))
	t.Cleanup(func() { close(fake.block) }) // runs before the pool's Close waits on the fake

	st, err := d.SubmitSweep(sweepFleetBundle(t, "fake.fleet_watch_cancel", sweepGrid(3)), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran // the range's first point is executing, and stays so
	// Follow the dispatcher's own record through its revisions until the
	// sweep shows running: by then the range watcher has folded the
	// →running reply and its next watch is parked (or about to be).
	for cur := st; cur.State != jobs.StateRunning; {
		next, err := d.WaitTimeout(context.Background(), st.ID, 10*time.Second, cur.Rev)
		if err != nil || next.Rev <= cur.Rev {
			t.Fatalf("dispatcher-side watch from rev %d: %+v %v", cur.Rev, next, err)
		}
		cur = next
	}
	if _, err := d.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); w.parked.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d watch(es) still parked on the worker 10s after the cancel", w.parked.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDispatcherWaitContext: the dispatcher's own ?wait= handler lets go
// when its client disconnects, like the worker tier's.
func TestDispatcherWaitContext(t *testing.T) {
	fake := registerFake(t, "fake.fleet_watch_ctx")
	fake.block = make(chan struct{})
	w := startWorker(t, 1)
	d := newDispatcher(t, eventOpts(w))
	t.Cleanup(func() { close(fake.block) }) // runs before the pool's Close waits on the fake
	inner := NewHandler(d)
	entered, returned := make(chan struct{}, 1), make(chan struct{}, 1)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		inner.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	defer front.Close()

	st, err := d.Submit(fleetBundle(t, "fake.fleet_watch_ctx", 1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/v1/jobs/"+st.ID+"?wait=60s", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // the request is in the handler; hang up on it
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned a response")
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatcher handler still parked after its client disconnected")
	}
}
