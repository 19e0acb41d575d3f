package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/ising"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
	"repro/internal/qop"
	rt "repro/internal/runtime"
)

// quickstartBundle is Listing 1's job as a job.json document: a 10-qubit
// QFT with measurement under the Listing-4 gate context.
func quickstartBundle(t testing.TB) []byte {
	t.Helper()
	reg := qdt.NewPhaseRegister("reg_phase", "phase", 10)
	qft, err := algolib.NewQFT(reg, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg},
		qop.Sequence{qft, algolib.NewMeasurement(reg)},
		ctxdesc.NewGate("gate.aer_simulator", 10000, 42))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func doJSON(t testing.TB, h http.Handler, method, path string, body []byte, wantCode int) map[string]any {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, strings.NewReader(string(body)))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != wantCode {
		t.Fatalf("%s %s = %d, want %d (body: %s)", method, path, w.Code, wantCode, w.Body.String())
	}
	out := map[string]any{}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON body %q: %v", method, path, w.Body.String(), err)
	}
	return out
}

// TestHTTPQuickstartEndToEnd is the acceptance-criterion flow: the
// quickstart bundle submitted twice over HTTP returns the same result,
// with the second submission served from the content-addressed cache as
// witnessed by the jobs_cache_hits_total counter on /metrics.
func TestHTTPQuickstartEndToEnd(t *testing.T) {
	pool := NewPool(Options{Workers: 2, QueueDepth: 8})
	defer pool.Close()
	h := NewHandler(pool)
	raw := quickstartBundle(t)

	// GET /v1/engines
	engines := doJSON(t, h, "GET", "/v1/engines", nil, http.StatusOK)
	if list, ok := engines["engines"].([]any); !ok || len(list) < 5 {
		t.Fatalf("engines: %v", engines)
	}

	// POST /v1/jobs — first submission executes.
	sub1 := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
	id1, _ := sub1["id"].(string)
	if id1 == "" || sub1["cache_hit"] != false {
		t.Fatalf("first submit: %v", sub1)
	}
	if _, err := pool.Wait(id1); err != nil {
		t.Fatal(err)
	}

	// GET /v1/jobs/{id} — terminal status with timing.
	st1 := doJSON(t, h, "GET", "/v1/jobs/"+id1, nil, http.StatusOK)
	if st1["state"] != string(StateDone) || st1["engine"] != "gate.aer_simulator" {
		t.Fatalf("status: %v", st1)
	}
	if ms, ok := st1["run_ms"].(float64); !ok || ms <= 0 {
		t.Fatalf("run_ms: %v", st1["run_ms"])
	}

	// GET /v1/jobs/{id}/result
	res1 := doJSON(t, h, "GET", "/v1/jobs/"+id1+"/result", nil, http.StatusOK)
	if res1["engine"] != "gate.aer_simulator" || res1["samples"] != float64(10000) {
		t.Fatalf("result: engine=%v samples=%v", res1["engine"], res1["samples"])
	}
	if entries, ok := res1["entries"].([]any); !ok || len(entries) == 0 {
		t.Fatal("result has no entries")
	}

	// POST the identical bundle again — born done, served from cache.
	sub2 := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
	id2, _ := sub2["id"].(string)
	if sub2["cache_hit"] != true || sub2["state"] != string(StateDone) {
		t.Fatalf("second submit not a cache hit: %v", sub2)
	}
	res2 := doJSON(t, h, "GET", "/v1/jobs/"+id2+"/result", nil, http.StatusOK)
	if !reflect.DeepEqual(res1["entries"], res2["entries"]) {
		t.Fatal("cached result entries differ from the first execution")
	}

	// GET /metrics — the cache hit is visible in the counter.
	if hits, submitted := metric(t, h, "jobs_cache_hits_total"), metric(t, h, "jobs_submitted_total"); hits != 1 || submitted != 2 {
		t.Fatalf("jobs_cache_hits_total %v, jobs_submitted_total %v; want 1 and 2", hits, submitted)
	}
}

// TestHTTPRejectsHugeAnnealSweeps: anneal.sweeps sizes a table the
// annealer allocates up front, so a value past ctxdesc.MaxAnnealSweeps is
// a 400 at submission, and the pool goes on serving anneal jobs.
func TestHTTPRejectsHugeAnnealSweeps(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer pool.Close()
	h := NewHandler(pool)
	for _, sweeps := range []int{ctxdesc.MaxAnnealSweeps + 1, 1e15} {
		b := annealBundle(t, "anneal.sa", 8, 1)
		b.Context.Anneal.Sweeps = sweeps
		raw, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		doc := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusBadRequest)
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "anneal.sweeps") {
			t.Errorf("sweeps %d: error %q does not name anneal.sweeps", sweeps, msg)
		}
	}
	raw, err := annealBundle(t, "anneal.sa", 8, 1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sub := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
	id, _ := sub["id"].(string)
	if _, err := pool.Wait(id); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPRejectsHugeAnnealReads: the annealer derives a stream and a
// mask per read before any work runs, so a num_reads past
// ctxdesc.MaxAnnealReads is a 400 naming the field — not a process
// killed by one request — and the pool still runs a normal job after.
func TestHTTPRejectsHugeAnnealReads(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer pool.Close()
	h := NewHandler(pool)
	for _, reads := range []int{ctxdesc.MaxAnnealReads + 1, 1e12} {
		raw, err := annealBundle(t, "anneal.sa", reads, 1).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		doc := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusBadRequest)
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "anneal.num_reads") {
			t.Errorf("num_reads %d: error %q does not name anneal.num_reads", reads, msg)
		}
	}
	raw, err := annealBundle(t, "anneal.sa", 8, 1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sub := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
	id, _ := sub["id"].(string)
	if _, err := pool.Wait(id); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPRejectsSchemaOnlyViolation: a rule once stated only in a JSON
// Schema (a cost hint is never negative) is refused at POST with a 400
// naming the field, and the refused body writes nothing to the journal.
func TestHTTPRejectsSchemaOnlyViolation(t *testing.T) {
	f := openJournal(t, store.Options{})
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, Store: f.st})
	defer pool.Close()
	b := gateBundle(t, "gate.statevector", 64, 1)
	b.Operators[0].CostHint = &qop.CostHint{TwoQ: -1}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	doc := doJSON(t, NewHandler(pool), "POST", "/v1/jobs", raw, http.StatusBadRequest)
	if msg, _ := doc["error"].(string); !strings.Contains(msg, "cost_hint.twoq") {
		t.Errorf("error %q does not name cost_hint.twoq", msg)
	}
	if evs := f.events(t); len(evs) != 0 {
		t.Errorf("a refused POST journaled %v", eventTypes(evs))
	}
}

// TestHTTPRejectsHugeSamples: a noisy gate run derives a stream per shot
// before its first trajectory, so an exec.samples past ctxdesc.MaxSamples
// is a 400 naming the field, and the pool still runs a normal noisy job
// after.
func TestHTTPRejectsHugeSamples(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer pool.Close()
	h := NewHandler(pool)
	noisy := func(samples int) []byte {
		b := gateBundle(t, "gate.statevector", samples, 1)
		b.Context.Exec.Options = map[string]any{"noise": map[string]any{"prob_1q": 0.001, "readout_flip": 0.02}}
		raw, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, samples := range []int{ctxdesc.MaxSamples + 1, 1e12} {
		doc := doJSON(t, h, "POST", "/v1/jobs", noisy(samples), http.StatusBadRequest)
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "exec.samples") {
			t.Errorf("samples %d: error %q does not name exec.samples", samples, msg)
		}
	}
	sub := doJSON(t, h, "POST", "/v1/jobs", noisy(64), http.StatusAccepted)
	id, _ := sub["id"].(string)
	if _, err := pool.Wait(id); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPOverflowingIsingProblemFails: an ISING_PROBLEM whose energies
// overflow float64 (|offset| + Σ|h| + Σ|J| is +Inf) cannot have its result
// served — JSON carries no ±Inf — so the job fails with a message naming
// the field, instead of finishing done with a result no GET can return.
// The pool still runs a normal anneal job after it.
func TestHTTPOverflowingIsingProblemFails(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer pool.Close()
	h := NewHandler(pool)
	m := ising.New(4, nil)
	m.H[0], m.H[1] = 1e308, 1e308
	raw, err := isingBundle(t, "anneal.sa", m, 8, 1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sub := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
	id, _ := sub["id"].(string)
	if _, err := pool.Wait(id); err != nil {
		t.Fatal(err)
	}
	st := doJSON(t, h, "GET", "/v1/jobs/"+id, nil, http.StatusOK)
	if msg, _ := st["error"].(string); st["state"] != "failed" || !strings.Contains(msg, "h: the energy bound") {
		t.Errorf("job ended %v with error %q, want failed naming h", st["state"], msg)
	}
	raw, err = annealBundle(t, "anneal.sa", 8, 1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sub = doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
	id, _ = sub["id"].(string)
	if st, err := pool.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("normal anneal job: %v / %+v", err, st)
	}
}

// failsOverHTTP submits bad to a one-worker pool over HTTP and returns the
// error it failed with, then checks that the same pool still runs good to
// done: one request must never take the worker, or the process, down.
func failsOverHTTP(t *testing.T, bad, good *bundle.Bundle) string {
	t.Helper()
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer pool.Close()
	h := NewHandler(pool)
	var msg string
	for i, b := range []*bundle.Bundle{bad, good} {
		raw, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		sub := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
		id, _ := sub["id"].(string)
		st, err := pool.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := []State{StateFailed, StateDone}[i]; st.State != want {
			t.Fatalf("job %d ended %s (%s), want %s", i, st.State, st.Error, want)
		}
		if i == 0 {
			msg = st.Error
		}
	}
	return msg
}

// infeasibleBecause checks that EstimateAll refuses b on engine with the
// reason the engine failed the job with.
func infeasibleBecause(t *testing.T, b *bundle.Bundle, engine, jobErr string) {
	t.Helper()
	ests, err := rt.EstimateAll(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range ests {
		if est.Engine == engine && (est.Feasible || est.Reason == "" || !strings.Contains(jobErr, est.Reason)) {
			t.Errorf("estimate %+v, job failed with %q", est, jobErr)
		}
	}
}

// TestHTTPHugeChimeraFailsItsJob: anneal.unit_cells sizes the Chimera
// graph an embedded anneal is placed on, 8·m² qubits. Past the sampler's
// 63 spins the job fails naming the field before the graph is built,
// instead of a worker panicking in makeslice.
func TestHTTPHugeChimeraFailsItsJob(t *testing.T) {
	b := annealBundle(t, "anneal.sa", 8, 1)
	b.Context.Anneal.Embed = true
	b.Context.Anneal.UnitCells = 10_000_000
	msg := failsOverHTTP(t, b, annealBundle(t, "anneal.sa", 8, 1))
	if !strings.Contains(msg, "anneal.unit_cells") || !strings.Contains(msg, "63-spin") {
		t.Errorf("error %q does not name anneal.unit_cells and the 63-spin limit", msg)
	}
	infeasibleBecause(t, b, "anneal.sa", msg)
}

// TestHTTPHugeQPUCountFailsItsJob: comm.qpus sizes the distributor's
// per-QPU tables. A QPU count past the circuit's qubits fails the job
// naming the field, instead of a worker panicking in makeslice.
func TestHTTPHugeQPUCountFailsItsJob(t *testing.T) {
	b := gateBundle(t, "gate.statevector", 64, 1)
	b.Context.Comm = &ctxdesc.Comm{QPUs: 1e15, QubitsPerQPU: 1, AllowTeleport: true}
	msg := failsOverHTTP(t, b, gateBundle(t, "gate.statevector", 64, 1))
	if !strings.Contains(msg, "qpus") {
		t.Errorf("error %q does not name qpus", msg)
	}
	infeasibleBecause(t, b, "gate.statevector", msg)
}

// TestAnnealResultDocIsDeterministic submits one ISING_PROBLEM with random
// real fields and couplings to 20 fresh pools: every result document must
// be the same bytes, as jobs.CacheKey promises. The energies in it are
// float sums whose last bits depend on the order the couplings are added
// in, so this holds only while that order is fixed.
func TestAnnealResultDocIsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n = 12
	var terms []ising.Term
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(2) == 0 {
				terms = append(terms, ising.Term{I: i, J: j, V: 3*r.Float64() - 1.5})
			}
		}
	}
	m := ising.New(n, terms)
	for i := range m.H {
		m.H[i] = 2*r.Float64() - 1
	}
	raw, err := isingBundle(t, "anneal.sa", m, 64, 7).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for run := 0; run < 20; run++ {
		doc := func() []byte {
			pool := NewPool(Options{Workers: 1, CacheSize: -1})
			defer pool.Close()
			h := NewHandler(pool)
			sub := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
			id, _ := sub["id"].(string)
			if st, err := pool.Wait(id); err != nil || st.State != StateDone {
				t.Fatalf("run %d: %v / %+v", run, err, st)
			}
			var doc bytes.Buffer
			if err := pool.WriteResult(context.Background(), &doc, id); err != nil {
				t.Fatal(err)
			}
			return doc.Bytes()
		}()
		if first == nil {
			first = doc
		} else if !bytes.Equal(doc, first) {
			t.Fatalf("run %d served a different document:\n%s\nrun 0:\n%s", run, doc, first)
		}
	}
}

// TestHTTPShardsParam covers the per-job parallelism surface: ?shards=N
// pins the grant (visible as "shards" in the status document) and
// /metrics counts the wide job. (Invalid values: the conformance
// test in internal/fleet.)
func TestHTTPShardsParam(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 4, MaxShards: 4})
	defer pool.Close()
	h := NewHandler(pool)
	raw := quickstartBundle(t)

	sub := doJSON(t, h, "POST", "/v1/jobs?shards=2", raw, http.StatusAccepted)
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("submit: %v", sub)
	}
	if _, err := pool.Wait(id); err != nil {
		t.Fatal(err)
	}
	st := doJSON(t, h, "GET", "/v1/jobs/"+id, nil, http.StatusOK)
	if st["state"] != string(StateDone) || st["shards"] != float64(2) {
		t.Fatalf("status: %v", st)
	}

	if wide := metric(t, h, "jobs_wide_total"); wide != 1 {
		t.Fatalf("jobs_wide_total = %v, want 1", wide)
	}
}

// TestHTTPBackpressure drives the 429 queue-full response — the one reply
// only a worker gives — through a blocked fake backend.
func TestHTTPBackpressure(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 8)}
	registerFake(t, "fake.http", fake)

	pool := NewPool(Options{Workers: 1, QueueDepth: 1, CacheSize: -1})
	defer pool.Close()
	h := NewHandler(pool)

	body := func(seed uint64) []byte {
		raw, err := annealBundle(t, "fake.http", 50, seed).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	sub1 := doJSON(t, h, "POST", "/v1/jobs", body(1), http.StatusAccepted)
	<-fake.ran // job 1 is running (blocked)
	id1 := sub1["id"].(string)

	doJSON(t, h, "POST", "/v1/jobs", body(2), http.StatusAccepted) // fills the queue

	// Queue full → 429 with Retry-After.
	r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(body(3))))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full POST = %d, want 429 (body: %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 lacks Retry-After")
	}

	close(fake.block)
	if _, err := pool.Wait(id1); err != nil {
		t.Fatal(err)
	}
	if rejected := metric(t, h, "jobs_rejected_total"); rejected != 1 {
		t.Fatalf("jobs_rejected_total = %v, want 1", rejected)
	}
}

// TestHTTPListJobs covers GET /v1/jobs: history listing, state filter and
// limit.
func TestHTTPListJobs(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.http_list", fake)
	pool := NewPool(Options{Workers: 1, QueueDepth: 8, CacheSize: -1})
	defer pool.Close()
	h := NewHandler(pool)

	var last string
	for seed := uint64(1); seed <= 3; seed++ {
		id, err := submit(pool, annealBundle(t, "fake.http_list", 50, seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Wait(id); err != nil {
			t.Fatal(err)
		}
		last = id
	}

	out := doJSON(t, h, "GET", "/v1/jobs", nil, http.StatusOK)
	jobsList, ok := out["jobs"].([]any)
	if !ok || len(jobsList) != 3 || out["count"] != float64(3) {
		t.Fatalf("list: %v", out)
	}
	first, _ := jobsList[0].(map[string]any)
	if first["id"] != last {
		t.Fatalf("listing not newest-first: %v", first)
	}
	if st := first["state"]; st != string(StateDone) {
		t.Fatalf("state: %v", st)
	}

	out = doJSON(t, h, "GET", "/v1/jobs?state=done&limit=2", nil, http.StatusOK)
	if out["count"] != float64(2) {
		t.Fatalf("filtered list: %v", out)
	}
	out = doJSON(t, h, "GET", "/v1/jobs?state=canceled", nil, http.StatusOK)
	if out["count"] != float64(0) {
		t.Fatalf("canceled list: %v", out)
	}
}
