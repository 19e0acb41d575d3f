package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/obs"
)

// syncBuffer is a race-safe log sink shared between the worker pool's
// goroutines and the asserting test.
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

// TestTracePropagationEndToEnd is the tracing acceptance test at the
// package level: a job POSTed to the dispatcher's HTTP surface with an
// X-Trace-Id must carry that exact ID through the dispatcher's journal
// and span log, across the forward to the owning worker (the worker's
// own status document and slog output show it), and back out on every
// response — while /metrics on both tiers serves a parseable exposition
// including the round-trip histogram.
func TestTracePropagationEndToEnd(t *testing.T) {
	fake := registerFake(t, "fake.fleet_trace")
	// Gate execution so the dispatcher's poller observes the running
	// state (and logs a "started" span) before the job can finish.
	fake.block = make(chan struct{})

	workerLogs := &syncBuffer{}
	pool := jobs.NewPool(jobs.Options{
		Workers: 1, QueueDepth: 16, CacheSize: 16,
		Logger: obs.NewLogger("json", workerLogs),
	})
	workerH := jobs.NewHandler(pool)
	workerSrv := httptest.NewServer(workerH)
	t.Cleanup(func() {
		workerSrv.Close()
		pool.Close()
	})

	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opts := Options{
		Workers:        []string{workerSrv.URL},
		Store:          st,
		RequestTimeout: 2 * time.Second,
		ProbeInterval:  20 * time.Millisecond,
	}
	d := newDispatcher(t, opts)
	dispH := NewHandler(d)
	dispSrv := httptest.NewServer(dispH)
	t.Cleanup(dispSrv.Close)

	const trace = "trace.fleet-e2e_01"
	raw, err := json.Marshal(fleetBundle(t, "fake.fleet_trace", 11))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", dispSrv.URL+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != trace {
		t.Fatalf("202 %s = %q, want %q", obs.TraceHeader, got, trace)
	}
	var sub struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body %s: %v", body, err)
	}
	if sub.TraceID != trace {
		t.Fatalf("submit trace_id = %q, want %q", sub.TraceID, trace)
	}

	waitState(t, d, sub.ID, jobs.StateRunning)
	close(fake.block)
	fin := waitState(t, d, sub.ID, jobs.StateDone)
	if fin.Trace != trace {
		t.Fatalf("dispatcher status trace = %q, want %q", fin.Trace, trace)
	}
	stages := map[string]bool{}
	for _, s := range fin.Spans {
		stages[s.Stage] = true
	}
	for _, want := range []string{"queued", "assigned", "started", "done"} {
		if !stages[want] {
			t.Fatalf("dispatcher span log missing %q: %+v", want, fin.Spans)
		}
	}

	// The owning worker saw the same ID: in its status document...
	wresp, err := http.Get(workerSrv.URL + "/v1/jobs/" + fin.Remote)
	if err != nil {
		t.Fatal(err)
	}
	wbody, _ := readAll(wresp)
	var wst struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(wbody, &wst); err != nil {
		t.Fatal(err)
	}
	if wst.TraceID != trace {
		t.Fatalf("worker status trace_id = %q, want %q (body %s)", wst.TraceID, trace, wbody)
	}
	// ...in its structured logs...
	if !strings.Contains(workerLogs.String(), trace) {
		t.Fatalf("trace %q absent from worker logs:\n%s", trace, workerLogs.String())
	}
	// ...and in the dispatcher's journal record.
	found := false
	for _, rec := range opts.Store.Records() {
		if rec.Job == sub.ID {
			found = true
			if rec.Trace != trace {
				t.Fatalf("journal record trace = %q, want %q", rec.Trace, trace)
			}
		}
	}
	if !found {
		t.Fatalf("job %s not in the dispatcher journal", sub.ID)
	}

	// Both tiers expose a valid exposition; the dispatcher's includes the
	// round-trip histogram with this forward observed.
	for _, tier := range []struct{ name, url string }{
		{"dispatcher", dispSrv.URL + "/metrics"},
		{"worker", workerSrv.URL + "/metrics"},
	} {
		mresp, err := http.Get(tier.url)
		if err != nil {
			t.Fatal(err)
		}
		mbody, _ := readAll(mresp)
		if mresp.StatusCode != http.StatusOK {
			t.Fatalf("%s /metrics = %d", tier.name, mresp.StatusCode)
		}
		if _, err := obs.ParseExposition(string(mbody)); err != nil {
			t.Fatalf("%s exposition does not parse: %v", tier.name, err)
		}
	}
	if n := d.met.roundtrip.Count(); n < 1 {
		t.Fatalf("fleet_roundtrip_seconds observed %d round trips, want >= 1", n)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	buf := &bytes.Buffer{}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
