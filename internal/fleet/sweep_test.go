package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
)

// sweepFleetBundle builds a symbolic QAOA sweep template for the given
// engine and point grid.
func sweepFleetBundle(t testing.TB, engine string, points [][]float64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(4), []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxdesc.NewGate(engine, 256, 11)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sweepGrid(n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{0.1 + 0.07*float64(i), 0.15 + 0.05*float64(i)}
	}
	return pts
}

// postSweepHTTP submits a sweep bundle to an HTTP endpoint and returns
// the accepted job ID.
func postSweepHTTP(t *testing.T, url string, b *bundle.Bundle) string {
	t.Helper()
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d (%s)", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("sweep submit body: %v (%s)", err, body)
	}
	return sub.ID
}

// sweepResultsByIndex fetches a terminal sweep's result document from an
// HTTP endpoint and returns per-point entry renderings keyed by global
// index.
func sweepResultsByIndex(t *testing.T, url, id string) map[int]string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/sweeps/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var doc struct {
				Results []struct {
					Index   int   `json:"index"`
					Entries []any `json:"entries"`
				} `json:"results"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("sweep result body: %v (%s)", err, body)
			}
			out := make(map[int]string, len(doc.Results))
			for _, pt := range doc.Results {
				out[pt.Index] = fmt.Sprint(pt.Entries)
			}
			return out
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatalf("sweep %s still pending: %s", id, body)
			}
		default:
			t.Fatalf("sweep result: %d (%s)", resp.StatusCode, body)
		}
	}
}

// TestFleetSweepScatterMerge: a sweep POSTed to the dispatcher scatters
// its point ranges over both workers, and the merged result set is
// per-point identical to the same sweep on a fresh single node.
func TestFleetSweepScatterMerge(t *testing.T) {
	w1, w2 := startWorker(t, 2), startWorker(t, 2)
	d := newDispatcher(t, fastOpts(w1, w2))
	front := httptest.NewServer(NewHandler(d))
	defer front.Close()

	const n = 8
	tmpl := sweepFleetBundle(t, "gate.statevector", sweepGrid(n))
	id := postSweepHTTP(t, front.URL, tmpl)

	// Long-poll the generic job route to terminal; the status must carry
	// the sweep progress fields.
	resp, err := http.Get(front.URL + "/v1/jobs/" + id + "?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		State      string `json:"state"`
		Sweep      bool   `json:"sweep"`
		Points     int    `json:"points"`
		PointsDone int    `json:"points_done"`
		Error      string `json:"error"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || !st.Sweep || st.Points != n || st.PointsDone != n {
		t.Fatalf("status: %+v (%s)", st, body)
	}

	// Both workers took a range: each pool accepted one sub-sweep.
	if s1, s2 := metric(t, w1.pool.Metrics(), "jobs_sweeps_total"), metric(t, w2.pool.Metrics(), "jobs_sweeps_total"); s1 != 1 || s2 != 1 {
		t.Fatalf("scatter skipped a worker: w1=%v w2=%v sweeps", s1, s2)
	}
	if sweeps, forwarded := d.met.sweeps.Value(), d.met.forwarded.Value(); sweeps != 1 || forwarded < 2 {
		t.Fatalf("dispatcher: %d sweeps, %d forwarded; want 1 and at least 2", sweeps, forwarded)
	}

	merged := sweepResultsByIndex(t, front.URL, id)
	if len(merged) != n {
		t.Fatalf("merged %d points, want %d", len(merged), n)
	}

	// Reference: the same template on a fresh single worker.
	w3 := startWorker(t, 2)
	refID := postSweepHTTP(t, w3.srv.URL, tmpl)
	ref := sweepResultsByIndex(t, w3.srv.URL, refID)
	for i := 0; i < n; i++ {
		if merged[i] == "" || merged[i] != ref[i] {
			t.Fatalf("point %d differs:\n fleet %s\n ref   %s", i, merged[i], ref[i])
		}
	}
}

// TestFleetSweepRefusesRepeatedIndex: a worker whose sweep result set has
// the right length but repeats a point index (and so misses another) is
// refused with a 502 naming the worker and the range, not merged into a
// document with a hole in it.
func TestFleetSweepRefusesRepeatedIndex(t *testing.T) {
	pool := jobs.NewPool(jobs.Options{Workers: 1, QueueDepth: 8, CacheSize: 8})
	inner := jobs.NewHandler(pool)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/sweeps/") || r.Method != http.MethodGet {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			var doc map[string]any
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Errorf("worker sweep document: %v", err)
			}
			doc["results"].([]any)[1].(map[string]any)["index"] = 0
			body, _ = json.Marshal(doc)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	opts := fastOpts()
	opts.Workers = []string{srv.URL}
	d := newDispatcher(t, opts)

	st, err := d.SubmitSweep(sweepFleetBundle(t, "gate.statevector", sweepGrid(3)), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := d.Wait(st.ID); err != nil || fin.State != jobs.StateDone {
		t.Fatalf("sweep: %+v %v", fin, err)
	}
	var out bytes.Buffer
	err = d.WriteSweepResult(t.Context(), &out, st.ID)
	var coded interface{ HTTPStatus() int }
	if err == nil || !errors.As(err, &coded) || coded.HTTPStatus() != http.StatusBadGateway {
		t.Fatalf("merged a result set with a repeated index: err=%v, wrote %d bytes", err, out.Len())
	}
	if msg := err.Error(); !strings.Contains(msg, srv.URL) || !strings.Contains(msg, "range [0,3)") {
		t.Fatalf("error does not name the worker and range: %q", msg)
	}
	if out.Len() != 0 {
		t.Fatalf("wrote %d bytes before refusing", out.Len())
	}
}

// TestFleetRefusesSweepBundleAsPlainJob: a dispatcher refuses a sweep
// bundle on Submit with ErrIsSweep, as a pool does, so POST /v1/jobs of a
// template answers 400 on both tiers and nothing is forwarded.
func TestFleetRefusesSweepBundleAsPlainJob(t *testing.T) {
	opts := fastOpts()
	opts.Workers = []string{"http://127.0.0.1:1"} // never reached
	d := newDispatcher(t, opts)
	_, err := d.Submit(sweepFleetBundle(t, "gate.statevector", sweepGrid(2)), jobs.SubmitOptions{})
	if !errors.Is(err, jobs.ErrIsSweep) {
		t.Fatalf("Submit of a sweep bundle: %v, want ErrIsSweep", err)
	}
	if st := d.List("", 10); len(st) != 0 {
		t.Fatalf("%d jobs accepted", len(st))
	}
}

// TestFleetSweepRangeReforward: when a worker stops answering mid-sweep,
// only its unfinished range re-forwards — the other range keeps its
// assignment — and the sweep still completes with every point answered.
func TestFleetSweepRangeReforward(t *testing.T) {
	fb := registerFake(t, "fake.fleet_sweep")
	fb.block = make(chan struct{})
	fb.ran = make(chan struct{})
	// Release blocked executions even on a failure path: the worker
	// pools' Close cleanups otherwise wait forever on them.
	var unblock sync.Once
	release := func() { unblock.Do(func() { close(fb.block) }) }
	t.Cleanup(release)
	w1, w2 := startWorker(t, 1), startWorker(t, 1)
	d := newDispatcher(t, fastOpts(w1, w2))

	const n = 6
	st, err := d.SubmitSweep(sweepFleetBundle(t, "fake.fleet_sweep", sweepGrid(n)), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sweep || st.Points != n {
		t.Fatalf("accepted status: %+v", st)
	}

	// Both ranges are executing their first point (the fake holds each
	// worker's execution open).
	<-fb.ran
	<-fb.ran
	go func() { // drain subsequent executions
		for range fb.ran {
		}
	}()

	// Identify a worker that owns a range and take it down; the poll
	// failures detach only that range. A point can start executing
	// before the dispatcher records the assignment under its own lock,
	// so poll until a range shows its worker.
	d.mu.Lock()
	j, _ := d.Get(st.ID)
	d.mu.Unlock()
	var victimURL string
	for deadline := time.Now().Add(10 * time.Second); victimURL == "" && time.Now().Before(deadline); {
		d.mu.Lock()
		for _, r := range j.ranges {
			if r.worker != "" {
				victimURL = r.worker
				break
			}
		}
		d.mu.Unlock()
		if victimURL == "" {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if victimURL == "" {
		t.Fatal("no range assigned within 10s")
	}
	victim := w1
	if victimURL == w2.srv.URL {
		victim = w2
	}
	victim.kill()
	release()

	fin, err := d.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateDone || fin.PointsDone != n {
		t.Fatalf("sweep finished %s points_done=%d (%s)", fin.State, fin.PointsDone, fin.Error)
	}
	if fin.Reforwards < 1 {
		t.Fatalf("no range was re-forwarded: %+v", fin)
	}
	if d.met.reforwarded.Value() < 1 {
		t.Fatal("fleet_reforwarded_total missed the range reforward")
	}
	// Every range ended on the surviving worker or finished before the
	// death; none is still assigned to the victim.
	d.mu.Lock()
	for _, r := range j.ranges {
		if !r.done {
			t.Errorf("range [%d,%d) not done", r.from, r.to)
		}
	}
	d.mu.Unlock()
}

// TestFleetSweepRecoveredTerminal: a sweep that finished before a
// dispatcher restart is replayed from the journal with its final range
// table, so it still answers Status with its grid and progress, and its
// merged result set is served again — byte for byte what it was before.
func TestFleetSweepRecoveredTerminal(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := startWorker(t, 2), startWorker(t, 2)
	opts := fastOpts(w1, w2)
	opts.Store = st1
	d := newDispatcher(t, opts)

	const n = 4
	sub, err := d.SubmitSweep(sweepFleetBundle(t, "gate.statevector", sweepGrid(n)), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := d.Wait(sub.ID); err != nil || fin.State != jobs.StateDone || len(fin.Ranges) != 2 {
		t.Fatalf("sweep before restart: %+v %v", fin, err)
	}
	var before bytes.Buffer
	if err := d.WriteSweepResult(t.Context(), &before, sub.ID); err != nil {
		t.Fatal(err)
	}
	d.Close()
	st1.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	opts.Store = st2
	d2 := newDispatcher(t, opts)
	got, err := d2.Status(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateDone || !got.Sweep || got.Points != n || got.PointsDone != n || len(got.Ranges) != 2 {
		t.Fatalf("recovered status: %+v", got)
	}
	var after bytes.Buffer
	if err := d2.WriteSweepResult(t.Context(), &after, sub.ID); err != nil {
		t.Fatalf("sweep result after restart: %v", err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("merged result changed across the restart:\n before %s\n after  %s", before.Bytes(), after.Bytes())
	}
}

// TestFleetSweepRangeCanceledOnWorker: a range whose sub-sweep is canceled
// out-of-band, on its worker, fails the sweep with a message that says so
// — and stops counting against that worker, as does the range the sweep
// ended under: every worker's outstanding count returns to zero.
func TestFleetSweepRangeCanceledOnWorker(t *testing.T) {
	fb := registerFake(t, "fake.fleet_sweep_cancel")
	fb.block = make(chan struct{})
	fb.ran = make(chan struct{}, 8)
	w1, w2 := startWorker(t, 1), startWorker(t, 1)
	t.Cleanup(func() { close(fb.block) }) // runs before the pools' Close waits on the fake
	// w1's only executor is taken, so the range it is handed stays queued
	// there, where a cancel can still reach it.
	if _, err := w1.pool.Submit(fleetBundle(t, "fake.fleet_sweep_cancel", 99), jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-fb.ran
	d := newDispatcher(t, fastOpts(w1, w2))
	st, err := d.SubmitSweep(sweepFleetBundle(t, "fake.fleet_sweep_cancel", sweepGrid(4)), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-fb.ran // w2 is executing its range's first point, and stays so
	var victim jobs.RangeInfo
	for deadline := time.Now().Add(10 * time.Second); victim.Remote == ""; time.Sleep(5 * time.Millisecond) {
		cur, err := d.Status(st.ID)
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("no range assigned to w1 within 10s: %+v %v", cur, err)
		}
		for _, rg := range cur.Ranges {
			if rg.Worker == w1.srv.URL {
				victim = rg
			}
		}
	}
	if _, err := w1.pool.Cancel(t.Context(), victim.Remote); err != nil {
		t.Fatalf("cancel %s on its worker: %v", victim.Remote, err)
	}
	fin, err := d.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("fleet: range [%d,%d) canceled on worker %s", victim.From, victim.To, w1.srv.URL)
	if fin.State != jobs.StateFailed || fin.Error != want {
		t.Fatalf("sweep finished %s %q, want failed %q", fin.State, fin.Error, want)
	}
	for _, name := range d.names {
		if n := workerGauge(t, d, "fleet_worker_outstanding", name); n != 0 {
			t.Errorf("worker %s still carries %v outstanding after the sweep ended", name, n)
		}
	}
}
