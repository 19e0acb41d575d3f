package jobs

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden from the handler under test. The
// committed files were written by the commit BEFORE the /v1 documents
// moved into exported structs shared with the fleet dispatcher, so the
// test pins that refactor (and any later one) to the bytes a worker served
// then. Regenerate only for a deliberate wire change.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/jobs/testdata/golden from the current handler")

// volatile matches the values of a /v1 document that differ between two
// runs of the same scenario: wall-clock stamps, measured durations, and
// generated trace IDs. Everything else — keys, order, indentation,
// omitted fields, counts, fingerprints, revisions — is compared verbatim.
var volatile = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"(submitted_at|started_at|finished_at|at)": "[^"]*"`), `"$1": "T"`},
	{regexp.MustCompile(`"(queue_ms|run_ms|eta_ms|imbalance)": [-+0-9.e]+`), `"$1": 0`},
	{regexp.MustCompile(`"(\w*ns)": -?\d+`), `"$1": 0`},
	{regexp.MustCompile(`"trace_id": "[^"]*"`), `"trace_id": "TRACE"`},
}

func normalizeDoc(body string) string {
	for _, v := range volatile {
		body = v.re.ReplaceAllString(body, v.repl)
	}
	return body
}

// TestGoldenWire replays one fixed scenario against a worker's handler
// and compares every response — status line and body — with the committed
// capture, byte for byte after normalizeDoc.
func TestGoldenWire(t *testing.T) {
	blocker := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 1)}
	registerFake(t, "fake.golden", blocker)
	pool := NewPool(Options{Workers: 1, QueueDepth: 8, MaxShards: 2})
	defer pool.Close()
	h := NewHandler(pool)

	do := func(method, path string, body []byte) string {
		t.Helper()
		r := httptest.NewRequest(method, path, strings.NewReader(string(body)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return fmt.Sprintf("%d\n%s", w.Code, normalizeDoc(w.Body.String()))
	}
	fakeBody := func(seed uint64) []byte {
		raw, err := annealBundle(t, "fake.golden", 50, seed).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	quick, err := gateBundle(t, "gate.statevector", 256, 7).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sweep := sweepBundleJSON(t, 4, [][]float64{{0.3, 0.7}, {1.1, 0.2}, {0.8, 1.4}})
	failing, err2 := annealBundle(t, "no.such_engine", 50, 1).Marshal()
	if err2 != nil {
		t.Fatal(err2)
	}

	var names []string
	got := map[string]string{}
	step := func(name, method, path string, body []byte) {
		t.Helper()
		names = append(names, name)
		got[name] = do(method, path, body)
	}

	// job-1: a plain gate job, run to done.
	step("submit", "POST", "/v1/jobs", quick)
	step("status_done", "GET", "/v1/jobs/job-00000001?wait=30s", nil)
	step("result", "GET", "/v1/jobs/job-00000001/result", nil)
	// job-2: its twin, born done from the cache.
	step("submit_cache_hit", "POST", "/v1/jobs", quick)
	step("status_cache_hit", "GET", "/v1/jobs/job-00000002", nil)
	// job-3: a three-point sweep.
	step("sweep_submit", "POST", "/v1/sweeps?shards=1", sweep)
	step("sweep_result", "GET", "/v1/sweeps/job-00000003?wait=30s", nil)
	step("sweep_status", "GET", "/v1/jobs/job-00000003", nil)
	// job-4: the profiled twin of job-1.
	step("submit_profiled", "POST", "/v1/jobs?profile=true", quick)
	step("status_profiled", "GET", "/v1/jobs/job-00000004?wait=30s", nil)
	// job-5: fails at execution.
	step("submit_failing", "POST", "/v1/jobs", failing)
	step("status_failed", "GET", "/v1/jobs/job-00000005?wait=30s", nil)
	step("result_failed", "GET", "/v1/jobs/job-00000005/result", nil)
	// job-6 holds the only worker; job-7 queues behind it and is canceled.
	step("submit_blocked", "POST", "/v1/jobs", fakeBody(1))
	<-blocker.ran
	step("status_running", "GET", "/v1/jobs/job-00000006", nil)
	step("result_running", "GET", "/v1/jobs/job-00000006/result", nil)
	step("submit_queued", "POST", "/v1/jobs", fakeBody(2))
	step("cancel", "DELETE", "/v1/jobs/job-00000007", nil)
	step("result_canceled", "GET", "/v1/jobs/job-00000007/result", nil)
	close(blocker.block)
	step("status_fake_done", "GET", "/v1/jobs/job-00000006?wait=30s", nil)
	step("list", "GET", "/v1/jobs?limit=3", nil)
	// Input the handler refuses.
	step("unknown_id", "GET", "/v1/jobs/job-99999999", nil)
	step("bad_shards", "POST", "/v1/jobs?shards=bogus", quick)
	step("bad_state", "GET", "/v1/jobs?state=bogus", nil)
	step("bad_limit", "GET", "/v1/jobs?limit=0", nil)
	step("bad_wait", "GET", "/v1/jobs/job-00000001?wait=banana", nil)
	step("bad_rev", "GET", "/v1/jobs/job-00000001?wait=1s&rev=x", nil)
	step("bad_body", "POST", "/v1/jobs", []byte("{not json"))
	step("oversized_body", "POST", "/v1/jobs", make([]byte, MaxBodyBytes+1))

	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(got[name]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got[name] != string(want) {
			t.Errorf("%s differs from the committed capture\n--- got\n%s\n--- want\n%s", name, got[name], want)
		}
	}
	// An http.StatusOK scenario that answers something else would still
	// match a capture of the same mistake; pin the codes the capture must hold.
	for name, code := range map[string]int{"status_done": http.StatusOK, "cancel": http.StatusOK, "result_failed": http.StatusInternalServerError} {
		if !strings.HasPrefix(got[name], fmt.Sprint(code)+"\n") {
			t.Errorf("%s: want HTTP %d, got %.40q", name, code, got[name])
		}
	}
}
