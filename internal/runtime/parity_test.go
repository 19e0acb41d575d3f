package runtime_test

import (
	"reflect"
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/jobs"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/runtime"
)

// qaoaTemplate builds a symbolic one-layer QAOA sweep template over a
// (gamma0, beta0) grid for ctx's engine.
func qaoaTemplate(t *testing.T, ctx *ctxdesc.Context, points [][]float64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(4), []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// annealTemplate builds a 4-spin MaxCut ISING_PROBLEM whose first field
// is the sweep parameter h0.
func annealTemplate(t *testing.T, points [][]float64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Cycle(4)))
	if err != nil {
		t.Fatal(err)
	}
	op.Params["h"] = []any{"$h0", 0.0, 0.0, 0.0}
	ctx := ctxdesc.NewAnneal("anneal.sa", 64, 5)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"h0"}, Points: points}
	b, err := bundle.New([]*qdt.DataType{reg}, qop.Sequence{op}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// parityRows is one sweep template per route a point takes to an engine:
// the gate template's parametric plan (whose (0, 0) point falls back to
// the concrete path), and the per-point handle of a noisy gate template,
// an anneal template and a pulse template.
func parityRows(t *testing.T) map[string]*bundle.Bundle {
	angles := [][]float64{{0.6, 0.4}, {1.3, 2.2}, {0, 0}, {2.9, -0.7}}
	noisy := ctxdesc.NewGate("gate.statevector", 128, 3)
	noisy.Exec.Options = map[string]any{"noise": map[string]any{"prob_1q": 0.01, "prob_2q": 0.05, "readout_flip": 0.02}}
	return map[string]*bundle.Bundle{
		"gate":   qaoaTemplate(t, ctxdesc.NewGate("gate.statevector", 256, 11), angles),
		"noisy":  qaoaTemplate(t, noisy, angles),
		"anneal": annealTemplate(t, [][]float64{{0.3}, {-0.5}, {1.1}, {0}}),
		"pulse":  qaoaTemplate(t, ctxdesc.NewGate("pulse.model", 16, 1), angles),
	}
}

// samePoint reports how got differs from want, Submit's result for the
// same concrete bundle: entries, meta and fingerprint all must match.
func samePoint(t *testing.T, row string, i int, got, want *result.Result) {
	t.Helper()
	if got == nil {
		t.Errorf("%s point %d never delivered", row, i)
		return
	}
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Errorf("%s point %d: entries %v, want %v", row, i, got.Entries, want.Entries)
	}
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Errorf("%s point %d: meta %v, want %v", row, i, got.Meta, want.Meta)
	}
	if got.Meta["intent_fingerprint"] == nil {
		t.Errorf("%s point %d: no intent_fingerprint", row, i)
	}
}

// TestSubmitSweepParity pins the sweep determinism contract for every
// engine family: each point's result — entries, meta, fingerprint — is
// what submitting that point's materialized concrete bundle on its own
// returns, through runtime.SubmitSweep and through a pool whose grant
// spreads the points over lanes sharing one prepared handle. Submit
// refuses the template itself: a prepared template would run its first
// point in its place.
func TestSubmitSweepParity(t *testing.T) {
	for row, b := range parityRows(t) {
		if _, err := runtime.Submit(b, runtime.Options{}); err == nil {
			t.Errorf("%s: Submit ran a sweep template as a plain bundle", row)
		}
		points := b.Context.Sweep.Points
		concrete := make([]*bundle.Bundle, len(points))
		indices := make([]int, len(points))
		want := make([]*result.Result, len(points))
		for i, pt := range points {
			cb, err := b.BindPoint(pt)
			if err != nil {
				t.Fatalf("%s: BindPoint(%v): %v", row, pt, err)
			}
			concrete[i], indices[i] = cb, i
			if want[i], err = runtime.Submit(cb, runtime.Options{}); err != nil {
				t.Fatalf("%s: concrete Submit point %d: %v", row, i, err)
			}
		}

		got := make([]*result.Result, len(points))
		err := runtime.SubmitSweep(b, concrete, indices, runtime.Options{}, func(i int, res *result.Result) error {
			if got[i] != nil {
				t.Errorf("%s: point %d delivered twice", row, i)
			}
			got[i] = res
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		for i := range points {
			samePoint(t, row, i, got[i], want[i])
		}

		pool := jobs.NewPool(jobs.Options{Workers: 1, MaxShards: 4})
		st, err := pool.SubmitSweep(b, jobs.SubmitOptions{})
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		if st, err = pool.Wait(st.ID); err != nil || st.State != jobs.StateDone || st.Shards != 4 {
			t.Fatalf("%s: pool sweep %s on %d shards, err %v (%s)", row, st.State, st.Shards, err, st.Error)
		}
		pooled, err := pool.SweepResult(st.ID)
		if err != nil {
			t.Fatalf("%s: %v", row, err)
		}
		for i := range points {
			samePoint(t, row+" pooled", i, pooled[i], want[i])
		}
		pool.Close()
	}
}

// TestPlainFingerprintIsComputed: a plain bundle's provenance is the
// client's, so a stale intent_fingerprint there never reaches its result —
// through runtime.Submit, through a pool job, or through the cached result
// a correct twin is served from.
func TestPlainFingerprintIsComputed(t *testing.T) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.6}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("gate.statevector", 64, 9))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := twin.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	stale := *twin
	prov := *twin.Provenance
	prov.IntentFingerprint = "stale"
	stale.Provenance = &prov

	res, err := runtime.Submit(&stale, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta["intent_fingerprint"] != fp {
		t.Errorf("Submit: intent_fingerprint %v, want %s", res.Meta["intent_fingerprint"], fp)
	}

	pool := jobs.NewPool(jobs.Options{Workers: 1})
	defer pool.Close()
	for k, b := range []*bundle.Bundle{&stale, twin} {
		st, err := pool.Submit(b, jobs.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = pool.Wait(st.ID); err != nil || st.State != jobs.StateDone {
			t.Fatalf("job %d: %s, err %v (%s)", k, st.State, err, st.Error)
		}
		if k == 1 && !st.CacheHit {
			t.Errorf("twin was not served from the cache")
		}
		res, err := pool.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if res.Meta["intent_fingerprint"] != fp {
			t.Errorf("job %d: intent_fingerprint %v, want %s", k, res.Meta["intent_fingerprint"], fp)
		}
	}
}
