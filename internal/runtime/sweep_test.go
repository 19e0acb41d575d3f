package runtime

import (
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/qdt"
)

// sweepBundle builds a symbolic one-layer QAOA sweep template over the
// given parameter grid.
func sweepBundle(t *testing.T, points [][]float64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(4), []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxdesc.NewGate("gate.statevector", 256, 11)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBindPointFingerprint checks a materialized point is
// indistinguishable from a hand-built concrete bundle.
func TestBindPointFingerprint(t *testing.T) {
	b := sweepBundle(t, [][]float64{{0.6, 0.4}})
	cb, err := b.BindPoint([]float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.6}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("gate.statevector", 256, 11))
	if err != nil {
		t.Fatal(err)
	}
	fpGot, err := cb.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpWant, err := ref.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpGot != fpWant {
		t.Fatalf("materialized fingerprint %s != concrete build %s", fpGot, fpWant)
	}
	if cb.Context.Sweep != nil {
		t.Fatal("sweep block survived materialization")
	}
}
