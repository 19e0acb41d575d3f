package jobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qop"
)

// quickstartBundle reproduces examples/quickstart as a job.json document:
// a 10-qubit QFT with measurement under the Listing-4 gate context.
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
// witnessed by the /v1/stats cache-hit counter.
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

	// GET /v1/stats — the cache hit is visible in the counter.
	stats := doJSON(t, h, "GET", "/v1/stats", nil, http.StatusOK)
	if stats["cache_hits"] != float64(1) || stats["submitted"] != float64(2) {
		t.Fatalf("stats: %v", stats)
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

// TestHTTPShardsParam covers the per-job parallelism surface: ?shards=N
// pins the grant (visible as "shards" in the status document) and
// /v1/stats reports the shard counters. (Invalid values: the conformance
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

	stats := doJSON(t, h, "GET", "/v1/stats", nil, http.StatusOK)
	if stats["max_shards"] != float64(4) || stats["wide_jobs"] != float64(1) {
		t.Fatalf("stats: %v", stats)
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
	stats := doJSON(t, h, "GET", "/v1/stats", nil, http.StatusOK)
	if stats["rejected"] != float64(1) {
		t.Fatalf("stats: %v", stats)
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
