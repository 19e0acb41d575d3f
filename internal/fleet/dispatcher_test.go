package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
	"repro/internal/result"
)

// fakeBackend is a deterministic injectable engine; block gates Execute
// for in-flight tests.
type fakeBackend struct {
	name  string
	execs atomic.Int64
	block chan struct{}
	ran   chan struct{}
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Execute(b *bundle.Bundle, _ backend.ExecOptions) (*result.Result, error) {
	if f.ran != nil {
		f.ran <- struct{}{}
	}
	if f.block != nil {
		<-f.block
	}
	f.execs.Add(1)
	seed := uint64(0)
	if b.Context != nil && b.Context.Exec != nil {
		seed = b.Context.Exec.Seed
	}
	return &result.Result{
		Engine:  f.name,
		Samples: 100,
		Entries: []result.Entry{
			{Bitstring: "0101", Index: seed % 16, Count: 60},
			{Bitstring: "1010", Index: (seed + 5) % 16, Count: 40},
		},
	}, nil
}

func registerFake(t *testing.T, name string) *fakeBackend {
	t.Helper()
	f := &fakeBackend{name: name}
	backend.Register(name, func() backend.Backend { return f })
	t.Cleanup(func() { backend.Unregister(name) })
	return f
}

// fleetBundle builds a small QAOA bundle routed to the given engine;
// identical (engine, seed) ⇒ identical cache key.
func fleetBundle(t testing.TB, engine string, seed uint64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.39}, []float64{1.17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate(engine, 256, seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// flakyWorker is a real jobs pool behind a handler that can be switched
// to answer 503 on everything — the probe- and watch-visible "down" state
// that does not stop the pool itself. It counts the status requests
// (GET /v1/jobs/{id}, with or without ?wait=) it has been sent and how
// many of them are in its handler right now.
type flakyWorker struct {
	srv        *httptest.Server
	pool       *jobs.Pool
	down       atomic.Bool
	statusReqs atomic.Int64
	parked     atomic.Int64
}

// kill is what SIGKILL looks like from the dispatcher: everything new is
// refused and every open connection — a parked watch included — resets.
func (fw *flakyWorker) kill() {
	fw.down.Store(true)
	fw.srv.CloseClientConnections()
}

func startWorker(t *testing.T, workers int) *flakyWorker {
	t.Helper()
	fw := &flakyWorker{pool: jobs.NewPool(jobs.Options{Workers: workers, QueueDepth: 64, CacheSize: 64})}
	inner := jobs.NewHandler(fw.pool)
	fw.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fw.down.Load() {
			http.Error(w, `{"error":"worker down"}`, http.StatusServiceUnavailable)
			return
		}
		if id, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/"); ok && r.Method == http.MethodGet && !strings.Contains(id, "/") {
			fw.statusReqs.Add(1)
			fw.parked.Add(1)
			defer fw.parked.Add(-1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		fw.srv.Close()
		fw.pool.Close()
	})
	return fw
}

// fastOpts are test-speed dispatcher options.
func fastOpts(workers ...*flakyWorker) Options {
	names := make([]string, len(workers))
	for i, w := range workers {
		names[i] = w.srv.URL
	}
	return Options{
		Workers:        names,
		RequestTimeout: 2 * time.Second,
		ProbeInterval:  20 * time.Millisecond,
		EjectAfter:     2,
		ReforwardAfter: 2,
	}
}

func newDispatcher(t *testing.T, opts Options) *Dispatcher {
	t.Helper()
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// resultJSON is the result document WriteResult passes on.
func resultJSON(d *Dispatcher, id string) ([]byte, error) {
	var buf bytes.Buffer
	err := d.WriteResult(context.Background(), &buf, id)
	return buf.Bytes(), err
}

func waitState(t *testing.T, d *Dispatcher, id string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := d.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Status{}
}

// TestDispatchBasic: jobs submitted to the dispatcher run on the fleet
// and complete with proxied results; duplicates follow cache affinity to
// the same worker and dedupe there.
func TestDispatchBasic(t *testing.T) {
	registerFake(t, "fake.fleet_basic")
	w1, w2 := startWorker(t, 2), startWorker(t, 2)
	d := newDispatcher(t, fastOpts(w1, w2))

	ids := make([]string, 4)
	for i := range ids {
		st, err := d.Submit(fleetBundle(t, "fake.fleet_basic", uint64(i)), jobs.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		st, err := d.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		if st.Worker == "" || st.Remote == "" {
			t.Fatalf("job %s has no assignment: %+v", id, st)
		}
		body, err := resultJSON(d, id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		var doc struct {
			Entries []any `json:"entries"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || len(doc.Entries) != 2 {
			t.Fatalf("result %s: %v (%s)", id, err, body)
		}
	}

	// A duplicate of job 0 must route to the same worker and be served
	// from that worker's cache (or coalesce) — no second execution path.
	first, _ := d.Status(ids[0])
	dup, err := d.Submit(fleetBundle(t, "fake.fleet_basic", 0), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Wait(dup.ID)
	if err != nil || st.State != jobs.StateDone {
		t.Fatalf("dup: %+v %v", st, err)
	}
	if st.Worker != first.Worker {
		t.Fatalf("duplicate routed to %s, primary ran on %s", st.Worker, first.Worker)
	}
	if !st.CacheHit && !st.Coalesced {
		t.Fatalf("duplicate neither cache hit nor coalesced: %+v", st)
	}

	s := d.Stats()
	if s.Completed != 5 || s.Failed != 0 || s.Forwarded < 5 {
		t.Fatalf("stats: %+v", s)
	}
	if s.Healthy != 2 || s.Workers != 2 {
		t.Fatalf("health: %+v", s)
	}
}

// TestEjectReadmitRejoin: a worker that stops answering is ejected (its
// keys rehash onto the survivors), and readmitted — rejoining the ring —
// on its first healthy probe.
func TestEjectReadmitRejoin(t *testing.T) {
	registerFake(t, "fake.fleet_rejoin")
	w1, w2 := startWorker(t, 2), startWorker(t, 2)
	d := newDispatcher(t, fastOpts(w1, w2))

	w1.down.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Healthy != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := d.Stats(); got.Healthy != 1 || got.Ejected != 1 {
		t.Fatalf("eject never happened: %+v", got)
	}

	// Everything routes to w2 while w1 is out — including keys whose ring
	// affinity is w1.
	for i := 0; i < 6; i++ {
		st, err := d.Submit(fleetBundle(t, "fake.fleet_rejoin", uint64(100+i)), jobs.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := d.Wait(st.ID)
		if err != nil || fin.State != jobs.StateDone {
			t.Fatalf("job during eject: %+v %v", fin, err)
		}
		if fin.Worker != w2.srv.URL {
			t.Fatalf("job routed to ejected worker %s", fin.Worker)
		}
	}

	// Rejoin: first healthy probe readmits, and a key with w1 affinity
	// routes to w1 again (rehash back).
	w1.down.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for d.Stats().Healthy != 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := d.Stats(); got.Healthy != 2 || got.Readmitted != 1 {
		t.Fatalf("readmit never happened: %+v", got)
	}
	// Search for a seed whose key has w1 affinity (the ring is port-
	// dependent, so probe deterministically rather than sampling), then
	// check it routes to the readmitted worker again.
	var b *bundle.Bundle
	for i := 0; i < 4096; i++ {
		cand := fleetBundle(t, "fake.fleet_rejoin", uint64(200+i))
		key, err := jobs.CacheKey(cand)
		if err != nil {
			t.Fatal(err)
		}
		if d.ring.lookup(key, nil) == w1.srv.URL {
			b = cand
			break
		}
	}
	if b == nil {
		t.Fatal("ring maps no key to w1 — the ring is broken")
	}
	st, err := d.Submit(b, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.Wait(st.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("job after rejoin: %+v %v", fin, err)
	}
	if fin.Worker != w1.srv.URL {
		t.Fatalf("w1-affinity key routed to %s after readmit, want %s", fin.Worker, w1.srv.URL)
	}
}

// reforwardOnWorkerLoss submits one job through a journaling dispatcher
// over two workers, kills the worker it runs on mid-run and checks that it
// is re-forwarded once and completes on the survivor. It returns the
// finished job's snapshot and its journal grammar: the event types, in
// journal order. A plain job and a sweep share one lifecycle, so the test
// below drives both through here and wants the same grammar from both.
func reforwardOnWorkerLoss(t *testing.T, engine string, submit func(*Dispatcher) (jobs.Status, error)) (fin jobs.Status, survivor string, grammar []string) {
	t.Helper()
	fake := registerFake(t, engine)
	fake.block = make(chan struct{})
	fake.ran = make(chan struct{}, 8)
	w1, w2 := startWorker(t, 1), startWorker(t, 1)
	dir := t.TempDir()
	journal, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	opts := fastOpts(w1, w2)
	opts.Store = journal
	opts.RequestTimeout = time.Minute // an unanswered watch parks for 30 s
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	st, err := submit(d)
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran // executing on some worker
	running := waitState(t, d, st.ID, jobs.StateRunning)
	on := running.Worker
	if running.Sweep {
		on = running.Ranges[0].Worker
	}
	victim, other := w1, w2
	if on == w2.srv.URL {
		victim, other = w2, w1
	}
	// The dispatcher's watch is parked on the victim (the job is blocked,
	// so nothing else can answer it): the kill resets it, and the
	// dispatcher must abandon the dead worker and re-run on the survivor
	// long before the parked watch would have run out on its own.
	victim.kill()
	select {
	case <-fake.ran:
	case <-time.After(10 * time.Second):
		t.Fatal("job not re-forwarded within 10s of its worker's death")
	}
	// Detached, so queued again; the replacement's →running reply makes it
	// running a second time, and only then may it finish.
	waitState(t, d, st.ID, jobs.StateRunning)
	close(fake.block)
	fin, err = d.Wait(st.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("after reforward: %+v %v", fin, err)
	}
	if fin.Reforwards != 1 {
		t.Fatalf("reforwards = %d, want 1", fin.Reforwards)
	}
	if s := d.Stats(); s.Reforwarded != 1 {
		t.Fatalf("stats: %+v", s)
	}
	for _, w := range d.WorkerInfos() {
		if w.Outstanding != 0 {
			t.Errorf("worker %s still carries %d outstanding", w.Name, w.Outstanding)
		}
	}
	if fin.Sweep {
		if err := d.WriteSweepResult(t.Context(), io.Discard, st.ID); err != nil {
			t.Fatalf("sweep result after reforward: %v", err)
		}
	} else if body, err := resultJSON(d, st.ID); err != nil || !bytes.Contains(body, []byte("0101")) {
		t.Fatalf("result after reforward: %v %s", err, body)
	}
	d.Close() // flush the job's queued events before reading the journal
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range splitLines(raw) {
		var ev store.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		grammar = append(grammar, ev.T)
	}
	return fin, other.srv.URL, grammar
}

// TestReforwardOnWorkerLoss: a job whose worker goes dark mid-run is
// re-forwarded to a surviving node and completes there — a plain job and a
// one-point sweep alike, with the same journal grammar: the running job is
// queued again when its worker is lost (which journals nothing), then
// assigned and started a second time.
func TestReforwardOnWorkerLoss(t *testing.T) {
	want := []string{store.EvSubmitted, store.EvAssigned, store.EvStarted, store.EvAssigned, store.EvStarted, store.EvDone}
	t.Run("job", func(t *testing.T) {
		fin, survivor, grammar := reforwardOnWorkerLoss(t, "fake.fleet_reforward", func(d *Dispatcher) (jobs.Status, error) {
			return d.Submit(fleetBundle(t, "fake.fleet_reforward", 7), jobs.SubmitOptions{})
		})
		if fin.Worker != survivor || fin.Ranges != nil {
			t.Fatalf("job finished on %s with ranges %+v, want survivor %s and none", fin.Worker, fin.Ranges, survivor)
		}
		if !slices.Equal(grammar, want) {
			t.Fatalf("journal grammar %v, want %v", grammar, want)
		}
	})
	t.Run("one-point sweep", func(t *testing.T) {
		fin, survivor, grammar := reforwardOnWorkerLoss(t, "fake.fleet_reforward_sweep", func(d *Dispatcher) (jobs.Status, error) {
			return d.SubmitSweep(sweepFleetBundle(t, "fake.fleet_reforward_sweep", sweepGrid(1)), jobs.SubmitOptions{})
		})
		if len(fin.Ranges) != 1 || fin.Ranges[0].Worker != survivor || fin.Worker != "" {
			t.Fatalf("sweep finished with ranges %+v (worker %q), want one on survivor %s", fin.Ranges, fin.Worker, survivor)
		}
		if !slices.Equal(grammar, want) {
			t.Fatalf("journal grammar %v, want %v", grammar, want)
		}
	})
}

// TestCancelCoalescedDuplicateRemote is the ISSUE edge case: a duplicate
// that coalesced onto a primary running on a remote worker is canceled —
// the cancel forwards to the owning worker, detaches only the waiter,
// and the primary still completes with its result.
func TestCancelCoalescedDuplicateRemote(t *testing.T) {
	fake := registerFake(t, "fake.fleet_coalcancel")
	fake.block = make(chan struct{})
	fake.ran = make(chan struct{}, 8)
	w1 := startWorker(t, 1)
	d := newDispatcher(t, fastOpts(w1))

	primary, err := d.Submit(fleetBundle(t, "fake.fleet_coalcancel", 9), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	waitState(t, d, primary.ID, jobs.StateRunning)

	dup, err := d.Submit(fleetBundle(t, "fake.fleet_coalcancel", 9), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the duplicate is attached on the worker (forwarded and
	// remote-coalesced), then cancel it through the dispatcher.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := d.Status(dup.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Remote != "" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cst, err := d.Cancel(context.Background(), dup.ID)
	if err != nil {
		t.Fatalf("cancel coalesced duplicate: %v", err)
	}
	if cst.State != jobs.StateCanceled {
		t.Fatalf("duplicate state %s, want canceled", cst.State)
	}

	close(fake.block)
	fin, err := d.Wait(primary.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("primary after duplicate cancel: %+v %v", fin, err)
	}
	if _, err := resultJSON(d, primary.ID); err != nil {
		t.Fatalf("primary result: %v", err)
	}
	if fake.execs.Load() != 1 {
		t.Fatalf("execs = %d, want 1 (duplicate must not re-run)", fake.execs.Load())
	}
	if s := d.Stats(); s.Canceled != 1 || s.Completed != 1 || s.Coalesced != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestHungWorkerDoesNotWedge: every dispatcher→worker call carries a
// timeout, so a worker that accepts connections and never answers
// releases the calling goroutine within RequestTimeout.
func TestHungWorkerDoesNotWedge(t *testing.T) {
	registerFake(t, "fake.fleet_hung")
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold every request until the client gives up. The server only
		// watches a connection for a hang-up once the request body has
		// been consumed, so drain it first — or a forwarded POST would
		// hold this handler, and hung.Close, forever.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer hung.Close()
	opts := Options{
		Workers:        []string{hung.URL},
		RequestTimeout: 200 * time.Millisecond,
		ProbeInterval:  time.Hour, // keep the prober out of the picture
	}
	d := newDispatcher(t, opts)

	start := time.Now()
	st, err := d.Submit(fleetBundle(t, "fake.fleet_hung", 1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The submit forward must give up within the timeout (the job then
	// waits for a healthy worker); the submission call itself returned
	// immediately.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("submit blocked %v", elapsed)
	}
	// Cancel against the hung worker: the job has no assignment (forward
	// can never succeed), so this cancels locally and promptly either way;
	// the real check is that nothing deadlocks under the timeout.
	start = time.Now()
	if _, err := d.Cancel(context.Background(), st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel blocked %v", elapsed)
	}
}

// TestDispatcherCrashRecovery: a dispatcher journaling to a store is
// torn down with a job still in flight on a worker; a new dispatcher
// over the same journal re-attaches to the remote job and finishes it,
// and pre-crash terminal jobs still answer status and (proxied) result.
func TestDispatcherCrashRecovery(t *testing.T) {
	fake := registerFake(t, "fake.fleet_recover")
	w1 := startWorker(t, 1)
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(w1)
	opts.Store = st1
	d1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	// One finished job...
	doneSt, err := d1.Submit(fleetBundle(t, "fake.fleet_recover", 1), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := d1.Wait(doneSt.ID); err != nil || fin.State != jobs.StateDone {
		t.Fatalf("%+v %v", fin, err)
	}
	// ...and one still executing when the dispatcher "crashes".
	fake.block = make(chan struct{})
	fake.ran = make(chan struct{}, 4)
	inflightSt, err := d1.Submit(fleetBundle(t, "fake.fleet_recover", 2), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	waitState(t, d1, inflightSt.ID, jobs.StateRunning)
	d1.Close() // watchers stop; the worker keeps running the job
	st1.Close()

	st2, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	opts.Store = st2
	d2 := newDispatcher(t, opts)

	s := d2.Stats()
	if s.Recovered < 2 || s.Reattached != 1 {
		t.Fatalf("recovery stats: %+v", s)
	}
	// Pre-crash terminal job: status + proxied result still served.
	got, err := d2.Status(doneSt.ID)
	if err != nil || got.State != jobs.StateDone {
		t.Fatalf("recovered terminal: %+v %v", got, err)
	}
	body, err := resultJSON(d2, doneSt.ID)
	if err != nil || !bytes.Contains(body, []byte("0101")) {
		t.Fatalf("recovered result: %v %s", err, body)
	}
	// In-flight job: re-attached under its original ID and finishes.
	close(fake.block)
	fin, err := d2.Wait(inflightSt.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("reattached job: %+v %v", fin, err)
	}
	if fake.execs.Load() != 2 {
		t.Fatalf("execs = %d, want 2 (re-attach must not re-run)", fake.execs.Load())
	}
}

// TestHTTPSurface drives the dispatcher through its HTTP handler the way
// qmlserve serves it: submit, status, list, result, stats, engines.
func TestHTTPSurface(t *testing.T) {
	registerFake(t, "fake.fleet_http")
	w1, w2 := startWorker(t, 2), startWorker(t, 2)
	d := newDispatcher(t, fastOpts(w1, w2))
	front := httptest.NewServer(NewHandler(d))
	defer front.Close()

	raw, err := json.Marshal(fleetBundle(t, "fake.fleet_http", 3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.ID == "" {
		t.Fatalf("submit: %v %+v", err, sub)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit code %d", resp.StatusCode)
	}

	getJSON := func(path string, want int) map[string]any {
		t.Helper()
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d (%s)", path, resp.StatusCode, want, body)
		}
		out := map[string]any{}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return out
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getJSON("/v1/jobs/"+sub.ID, http.StatusOK)
		if st["state"] == "done" {
			if st["worker"] == "" {
				t.Fatalf("done without worker: %v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never done: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := getJSON("/v1/jobs/"+sub.ID+"/result", http.StatusOK)
	if len(res["entries"].([]any)) != 2 {
		t.Fatalf("result: %v", res)
	}
	list := getJSON("/v1/jobs?state=done", http.StatusOK)
	if list["count"].(float64) < 1 {
		t.Fatalf("list: %v", list)
	}
	stats := getJSON("/v1/stats", http.StatusOK)
	if stats["dispatcher"] == nil || stats["workers"] == nil || stats["fleet"] == nil {
		t.Fatalf("stats shape: %v", stats)
	}
	engines := getJSON("/v1/engines", http.StatusOK)
	found := false
	for _, e := range engines["engines"].([]any) {
		if e == "fake.fleet_http" {
			found = true
		}
	}
	if !found {
		t.Fatalf("engines: %v", engines)
	}
}

// TestSubmitValidation: a bundle the workers would reject is rejected at
// the dispatcher door with 400, before any forwarding.
func TestSubmitValidation(t *testing.T) {
	registerFake(t, "fake.fleet_validate")
	w1 := startWorker(t, 1)
	d := newDispatcher(t, fastOpts(w1))
	front := httptest.NewServer(NewHandler(d))
	defer front.Close()
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(`{"not":"a bundle"}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid bundle: %d", resp.StatusCode)
	}
	if s := d.Stats(); s.Submitted != 0 || s.Forwarded != 0 {
		t.Fatalf("rejected bundle reached the router: %+v", s)
	}
}
