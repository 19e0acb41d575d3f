package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/qdt"
	"repro/internal/result"
)

// benchFake is a near-instant engine so the round trips below measure
// dispatch overhead, not simulation time.
type benchFake struct{}

func (benchFake) Name() string { return "fake.fleet_bench" }
func (benchFake) Execute(b *bundle.Bundle, _ backend.ExecOptions) (*result.Result, error) {
	return &result.Result{
		Engine:  "fake.fleet_bench",
		Samples: 1,
		Entries: []result.Entry{{Bitstring: "0000", Count: 1}},
	}, nil
}

func benchBundleRaw(b *testing.B, seed uint64) []byte {
	b.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.39}, []float64{1.17})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("fake.fleet_bench", 16, seed))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := bd.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// roundTrip submits one bundle and polls the same /v1 surface to the
// result — the client experience being measured.
func roundTrip(b *testing.B, base string, raw []byte) {
	b.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(base + "/v1/jobs/" + sub.ID + "/result")
		if err != nil {
			b.Fatal(err)
		}
		code := r.StatusCode
		r.Body.Close()
		if code == http.StatusOK {
			return
		}
		if code != http.StatusAccepted {
			b.Fatalf("result poll: %d", code)
		}
		if time.Now().After(deadline) {
			b.Fatalf("job %s never finished", sub.ID)
		}
	}
}

// BenchmarkDirectRoundTrip is the baseline: submit→result against one
// worker pool's own HTTP surface.
func BenchmarkDirectRoundTrip(b *testing.B) {
	backend.Register("fake.fleet_bench", func() backend.Backend { return benchFake{} })
	defer backend.Unregister("fake.fleet_bench")
	pool := jobs.NewPool(jobs.Options{Workers: 2, QueueDepth: 256, CacheSize: -1})
	defer pool.Close()
	srv := httptest.NewServer(jobs.NewHandler(pool))
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, srv.URL, benchBundleRaw(b, uint64(i)+1))
	}
}

// BenchmarkDispatchRoundTrip runs the same submit→result loop through a
// dispatcher fronting that worker — the delta against
// BenchmarkDirectRoundTrip is the fleet layer's per-job overhead on the
// options everybody runs (the defaults): one forward hop plus one watch
// parked on the worker, answered the moment the job finishes.
func BenchmarkDispatchRoundTrip(b *testing.B) {
	backend.Register("fake.fleet_bench", func() backend.Backend { return benchFake{} })
	defer backend.Unregister("fake.fleet_bench")
	pool := jobs.NewPool(jobs.Options{Workers: 2, QueueDepth: 256, CacheSize: -1})
	defer pool.Close()
	workerSrv := httptest.NewServer(jobs.NewHandler(pool))
	defer workerSrv.Close()
	d, err := New(Options{Workers: []string{workerSrv.URL}})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	front := httptest.NewServer(NewHandler(d))
	defer front.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, front.URL, benchBundleRaw(b, uint64(i)+1))
	}
	if s := d.Stats(); s.Failed > 0 {
		b.Fatalf("failures during bench: %+v", s)
	}
}
