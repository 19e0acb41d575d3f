package jobs

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/qdt"
	"repro/internal/qop"
)

// sweepBundleJSON renders a symbolic QAOA sweep template over nq qubits
// as a job.json document.
func sweepBundleJSON(t testing.TB, nq int, points [][]float64) []byte {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", nq)
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(nq), []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxdesc.NewGate("gate.statevector", 256, 7)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestHTTPSweepEndToEnd drives the sweep surface over HTTP: POST
// /v1/sweeps accepts the grid as one job, GET /v1/jobs/{id}?wait=
// long-polls it to done, and GET /v1/sweeps/{id} answers the indexed
// per-point result set. (The refusals of the sweep routes: the conformance
// test in internal/fleet.)
func TestHTTPSweepEndToEnd(t *testing.T) {
	pool := NewPool(Options{Workers: 2, QueueDepth: 8})
	defer pool.Close()
	h := NewHandler(pool)
	points := [][]float64{{0.3, 0.7}, {1.1, 0.2}, {0.8, 1.4}}
	raw := sweepBundleJSON(t, 4, points)

	sub := doJSON(t, h, "POST", "/v1/sweeps", raw, http.StatusAccepted)
	id, _ := sub["id"].(string)
	if id == "" || sub["points"] != float64(len(points)) {
		t.Fatalf("submit: %v", sub)
	}

	// Long-poll the generic job status straight to terminal.
	st := doJSON(t, h, "GET", "/v1/jobs/"+id+"?wait=30s", nil, http.StatusOK)
	if st["state"] != string(StateDone) || st["sweep"] != true || st["points_done"] != float64(len(points)) {
		t.Fatalf("status: %v", st)
	}

	res := doJSON(t, h, "GET", "/v1/sweeps/"+id, nil, http.StatusOK)
	list, ok := res["results"].([]any)
	if !ok || len(list) != len(points) {
		t.Fatalf("results: %v", res["results"])
	}
	for i, el := range list {
		pt, _ := el.(map[string]any)
		if pt["index"] != float64(i) {
			t.Fatalf("point %d has index %v", i, pt["index"])
		}
		if entries, ok := pt["entries"].([]any); !ok || len(entries) == 0 {
			t.Fatalf("point %d has no entries", i)
		}
	}
}

// BenchmarkSweepRoundTrip compares the two ways a client runs a
// parameter grid against the HTTP surface, caching disabled so every
// point executes: one POST /v1/sweeps (compile once, bind per point)
// versus the per-job loop (POST /v1/jobs + wait + result per point, each
// submission lowering/transpiling/compiling from scratch). The workload
// is a three-layer 12-qubit QAOA at modest shots — the variational
// regime the sweep API exists for, where per-job fixed costs (parse,
// validate, lower, transpile, compile, fingerprint) rival the per-point
// simulation.
func BenchmarkSweepRoundTrip(b *testing.B) {
	const nq, layers, shots = 6, 8, 32
	reg := qdt.NewIsingVars("ising_vars", "s", nq)
	var gammas, betas []string
	for l := 0; l < layers; l++ {
		gammas = append(gammas, fmt.Sprintf("gamma%d", l))
		betas = append(betas, fmt.Sprintf("beta%d", l))
	}
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(nq), gammas, betas)
	if err != nil {
		b.Fatal(err)
	}
	ctx := ctxdesc.NewGate("gate.statevector", shots, 7)
	var points [][]float64
	for i := 0; i < 16; i++ {
		pt := make([]float64, 2*layers)
		for k := range pt {
			pt[k] = 0.1 + 0.07*float64(i) + 0.05*float64(k)
		}
		points = append(points, pt)
	}
	ctx.Sweep = &ctxdesc.Sweep{Params: append(append([]string{}, gammas...), betas...), Points: points}
	tb, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := tb.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	tmpl, err := bundle.FromJSON(raw, qop.ValidateOptions{})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("sweep", func(b *testing.B) {
		pool := NewPool(Options{Workers: 1, CacheSize: -1})
		defer pool.Close()
		h := NewHandler(pool)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sub := doJSON(b, h, "POST", "/v1/sweeps", raw, http.StatusAccepted)
			id, _ := sub["id"].(string)
			res := doJSON(b, h, "GET", "/v1/sweeps/"+id+"?wait=60s", nil, http.StatusOK)
			if list, ok := res["results"].([]any); !ok || len(list) != len(points) {
				b.Fatalf("iteration %d: %v", i, res)
			}
		}
	})
	b.Run("perjob", func(b *testing.B) {
		pool := NewPool(Options{Workers: 1, CacheSize: -1})
		defer pool.Close()
		h := NewHandler(pool)
		// Materialize each point the way a sweep-less client would.
		raws := make([][]byte, len(points))
		for i, pt := range points {
			cb, err := tmpl.BindPoint(pt)
			if err != nil {
				b.Fatal(err)
			}
			if raws[i], err = cb.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ids := make([]string, len(points))
			for k, body := range raws {
				sub := doJSON(b, h, "POST", "/v1/jobs", body, http.StatusAccepted)
				ids[k], _ = sub["id"].(string)
			}
			for k, id := range ids {
				st := doJSON(b, h, "GET", "/v1/jobs/"+id+"?wait=60s", nil, http.StatusOK)
				if st["state"] != string(StateDone) {
					b.Fatalf("iteration %d point %d: %v", i, k, st)
				}
				res := doJSON(b, h, "GET", "/v1/jobs/"+id+"/result", nil, http.StatusOK)
				if entries, ok := res["entries"].([]any); !ok || len(entries) == 0 {
					b.Fatalf("iteration %d point %d: no entries", i, k)
				}
			}
		}
	})
}
