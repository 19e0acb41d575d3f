package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer is a race-safe log sink: the pool's worker goroutines write
// while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHTTPTraceAndSpans drives a traced job through the worker surface:
// the inbound X-Trace-Id must come back on the 202 (header and body),
// appear in the status document alongside a span log covering the
// lifecycle and the simulator stages, and show up on the structured log
// lines.
func TestHTTPTraceAndSpans(t *testing.T) {
	logs := &syncBuffer{}
	pool := NewPool(Options{Workers: 1, QueueDepth: 8, Logger: obs.NewLogger("json", logs)})
	defer pool.Close()
	h := NewHandler(pool)
	raw := quickstartBundle(t)

	const trace = "trace-e2e-001"
	r := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(raw)))
	r.Header.Set(obs.TraceHeader, trace)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get(obs.TraceHeader); got != trace {
		t.Fatalf("202 %s = %q, want %q", obs.TraceHeader, got, trace)
	}
	var sub struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body: %v (%s)", err, w.Body.String())
	}
	if sub.TraceID != trace {
		t.Fatalf("submit trace_id = %q, want %q", sub.TraceID, trace)
	}

	var st map[string]any
	deadline := time.Now().Add(30 * time.Second)
	for {
		st = doJSON(t, h, "GET", "/v1/jobs/"+sub.ID, nil, http.StatusOK)
		if st["state"] == "done" {
			break
		}
		if st["state"] == "failed" || time.Now().After(deadline) {
			t.Fatalf("job did not finish: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st["trace_id"] != trace {
		t.Fatalf("status trace_id = %v, want %q", st["trace_id"], trace)
	}
	spans, _ := st["spans"].([]any)
	stages := map[string]bool{}
	for _, s := range spans {
		stages[s.(map[string]any)["stage"].(string)] = true
	}
	for _, want := range []string{"queued", "started", "compile", "execute", "sample", "done"} {
		if !stages[want] {
			t.Fatalf("span log missing %q: %v", want, spans)
		}
	}

	if !strings.Contains(logs.String(), trace) {
		t.Fatalf("trace %q absent from structured logs:\n%s", trace, logs.String())
	}

	// A generated ID replaces a missing header and still echoes.
	r2 := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(string(raw)))
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, r2)
	if w2.Code != http.StatusAccepted {
		t.Fatalf("second submit = %d", w2.Code)
	}
	if gen := w2.Header().Get(obs.TraceHeader); !obs.ValidTraceID(gen) {
		t.Fatalf("generated trace %q is not valid", gen)
	}
}

// TestHTTPMetricsEndpoint scrapes GET /metrics off the worker handler
// after a job ran and checks — through the strict exposition parser —
// that the pool's counters and latency histograms are present.
func TestHTTPMetricsEndpoint(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 8})
	defer pool.Close()
	h := NewHandler(pool)
	raw := quickstartBundle(t)

	sub := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusAccepted)
	id := sub["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := doJSON(t, h, "GET", "/v1/jobs/"+id, nil, http.StatusOK)
		if st["state"] == "done" {
			break
		}
		if st["state"] == "failed" || time.Now().After(deadline) {
			t.Fatalf("job did not finish: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if n := metric(t, h, "jobs_submitted_total"); n != 1 {
		t.Fatalf("jobs_submitted_total = %v, want 1", n)
	}
	byName := scrape(t, h)
	for _, histo := range []string{"jobs_queue_wait_seconds", "jobs_run_seconds", "sim_execute_seconds"} {
		f, ok := byName[histo]
		if !ok || f.Type != "histogram" {
			t.Fatalf("missing histogram %s (families: %d)", histo, len(byName))
		}
		found := false
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_count") && s.Value >= 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s observed nothing: %+v", histo, f.Samples)
		}
	}
}

// scrape GETs /metrics off h and returns its families by name, through
// the strict exposition parser; metric is the first sample of one.
func scrape(t *testing.T, h http.Handler) map[string]obs.Family {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if ct := w.Header().Get("Content-Type"); w.Code != http.StatusOK || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics = %d, content type %q", w.Code, ct)
	}
	fams, err := obs.ParseExposition(w.Body.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]obs.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

func metric(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	f := scrape(t, h)[name]
	v, ok := f.Value()
	if !ok {
		t.Fatalf("/metrics has no %s", name)
	}
	return v
}
