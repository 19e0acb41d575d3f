package jobs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// watchAsync parks WaitTimeout(since) on its own goroutine and delivers
// the status it wakes with.
func watchAsync(ctx context.Context, p *Pool, id string, since uint64) <-chan Status {
	out := make(chan Status, 1)
	go func() {
		st, _ := p.WaitTimeout(ctx, id, 30*time.Second, since)
		out <- st
	}()
	return out
}

// recvStatus fails the test if a parked watch does not wake: every wait in
// these tests parks for 30 s, so a missed wake-up shows as this timeout
// rather than as a slow pass.
func recvStatus(t *testing.T, ch <-chan Status, what string) Status {
	t.Helper()
	select {
	case st := <-ch:
		return st
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: parked watch never woke", what)
		return Status{}
	}
}

// TestWatchRevisions pins the revisioned long-poll on a plain job: a wait
// that names the revision it last saw wakes on queued→running and again at
// terminal; a stale revision is answered at once; a wait that names none
// wakes at terminal only; a cancelled context releases a parked wait.
func TestWatchRevisions(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 4)}
	registerFake(t, "fake.watch", fb)
	p := NewPool(Options{Workers: 1, CacheSize: -1})
	defer p.Close()
	defer close(fb.block) // on a failure path, let Close drain
	ctx := context.Background()

	// A holds the only worker so B stays queued until the test says so.
	if _, err := submit(p, bundleFor(t, "fake.watch", 1)); err != nil {
		t.Fatal(err)
	}
	<-fb.ran
	queued, err := p.Submit(bundleFor(t, "fake.watch", 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != StateQueued {
		t.Fatalf("B accepted as %s, want queued", queued.State)
	}
	id := queued.ID

	watcher := watchAsync(ctx, p, id, queued.Rev)
	terminalOnly := watchAsync(ctx, p, id, NoRev)
	cctx, cancel := context.WithCancel(ctx)
	abandoned := watchAsync(cctx, p, id, NoRev)

	cancel()
	if st := recvStatus(t, abandoned, "cancelled context"); st.State != StateQueued {
		t.Fatalf("abandoned wait returned %s, want the current state (queued)", st.State)
	}

	fb.block <- struct{}{} // A finishes, B starts
	running := recvStatus(t, watcher, "queued→running")
	if running.State != StateRunning || running.Rev <= queued.Rev {
		t.Fatalf("watch woke with state=%s rev=%d (was %d), want running at a newer revision", running.State, running.Rev, queued.Rev)
	}

	// B is parked on the fake, so its revision cannot move: a stale rev
	// must come back without waiting for anything.
	if st := recvStatus(t, watchAsync(ctx, p, id, queued.Rev), "stale revision"); st.Rev != running.Rev || st.State != StateRunning {
		t.Fatalf("stale-revision wait returned state=%s rev=%d, want running rev=%d", st.State, st.Rev, running.Rev)
	}

	watcher = watchAsync(ctx, p, id, running.Rev)
	fb.block <- struct{}{} // B finishes
	done := recvStatus(t, watcher, "running→done")
	if done.State != StateDone || done.Rev <= running.Rev {
		t.Fatalf("watch woke with state=%s rev=%d (was %d), want done at a newer revision", done.State, done.Rev, running.Rev)
	}
	// Had the rev-less wait woken on queued→running it would carry that
	// state; it must have slept through to the terminal transition.
	if st := recvStatus(t, terminalOnly, "no revision"); st.State != StateDone {
		t.Fatalf("rev-less wait returned %s, want done", st.State)
	}
}

// TestWatchSweepPoints: a revision watch on a sweep wakes once per
// finished point, so a progress follower needs no polling cadence.
func TestWatchSweepPoints(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 8)}
	registerFake(t, "fake.watch_sweep", fb)
	p := NewPool(Options{Workers: 1, CacheSize: -1})
	defer p.Close()
	defer close(fb.block) // on a failure path, let Close drain
	ctx := context.Background()

	const n = 3
	b := sweepTestBundle(t, sweepGrid64()[:n])
	b.Context.Exec.Engine = "fake.watch_sweep"
	id, err := submitSweep(p, b)
	if err != nil {
		t.Fatal(err)
	}
	<-fb.ran // point 0 executing
	st, err := p.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		watcher := watchAsync(ctx, p, id, st.Rev)
		fb.block <- struct{}{} // exactly one point finishes
		next := recvStatus(t, watcher, "sweep point")
		if next.Rev <= st.Rev || next.PointsDone < k {
			t.Fatalf("after point %d: rev %d→%d points_done=%d", k, st.Rev, next.Rev, next.PointsDone)
		}
		st = next
	}
	for !st.State.Terminal() {
		st = recvStatus(t, watchAsync(ctx, p, id, st.Rev), "sweep terminal")
	}
	if st.State != StateDone || st.PointsDone != n {
		t.Fatalf("sweep finished %s with %d/%d points", st.State, st.PointsDone, n)
	}
}

// TestHTTPWatch drives the wire format: "rev" rides the 202 and every
// status document, ?wait=&rev= wakes on the next change, a malformed rev
// is a 400, and a client that hangs up releases its parked handler.
func TestHTTPWatch(t *testing.T) {
	fb := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 4)}
	registerFake(t, "fake.watch_http", fb)
	p := NewPool(Options{Workers: 1, CacheSize: -1})
	defer p.Close()
	defer close(fb.block) // on a failure path, let Close drain
	inner := NewHandler(p)
	entered, returned := make(chan struct{}, 1), make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		inner.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	defer srv.Close()

	raw, err := json.Marshal(bundleFor(t, "fake.watch_http", 1))
	if err != nil {
		t.Fatal(err)
	}
	sub := doJSON(t, inner, http.MethodPost, "/v1/jobs", raw, http.StatusAccepted)
	id := sub["id"].(string)
	rev, ok := sub["rev"].(float64)
	if !ok {
		t.Fatalf("202 reply carries no rev: %v", sub)
	}
	<-fb.ran // running, parked on the fake

	path := "/v1/jobs/" + id
	st := doJSON(t, inner, http.MethodGet, path+"?wait=30s&rev="+strconv.Itoa(int(rev)), nil, http.StatusOK)
	if st["state"] != "running" || st["rev"].(float64) <= rev {
		t.Fatalf("watch from the 202's rev: %v", st)
	}
	doJSON(t, inner, http.MethodGet, path+"?wait=1s&rev=abc", nil, http.StatusBadRequest)
	doJSON(t, inner, http.MethodGet, path+"?rev=-1", nil, http.StatusBadRequest)

	// A client that disconnects mid-wait must not leave its handler
	// parked for the remaining 60 s.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+path+"?wait=60s", nil)
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
		t.Fatal("handler still parked after its client disconnected")
	}
	fb.block <- struct{}{}
}
