package runtime

import (
	"strings"
	"testing"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/bundle"
	"repro/internal/comm"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/transpile"
)

func findEstimate(t *testing.T, ests []Estimate, engine string) Estimate {
	t.Helper()
	for _, e := range ests {
		if e.Engine == engine {
			return e
		}
	}
	t.Fatalf("no estimate for %s", engine)
	return Estimate{}
}

func TestEstimateAllGateBundle(t *testing.T) {
	b := qaoaBundle(t, ctxdesc.NewGate("gate.statevector", 2048, 1))
	ests, err := EstimateAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("%d estimates", len(ests))
	}
	gate := findEstimate(t, ests, "gate.statevector")
	if !gate.Feasible {
		t.Errorf("gate infeasible: %s", gate.Reason)
	}
	if gate.TwoQubitGates == 0 || gate.Depth == 0 || gate.PhysicalUnits != 4 {
		t.Errorf("gate estimate = %+v", gate)
	}
	if gate.DurationNS <= 0 {
		t.Errorf("gate duration = %v", gate.DurationNS)
	}
	pulseEst := findEstimate(t, ests, "pulse.model")
	if !pulseEst.Feasible {
		t.Errorf("pulse infeasible: %s", pulseEst.Reason)
	}
	annealEst := findEstimate(t, ests, "anneal.sa")
	if annealEst.Feasible {
		t.Error("anneal engine claims it can run a QAOA stack")
	}
}

func TestEstimateAllIsingBundle(t *testing.T) {
	ctx := ctxdesc.NewAnneal("anneal.sa", 500, 1)
	ctx.Anneal.Sweeps = 200
	b := isingBundle(t, ctx)
	ests, err := EstimateAll(b)
	if err != nil {
		t.Fatal(err)
	}
	annealEst := findEstimate(t, ests, "anneal.sa")
	if !annealEst.Feasible {
		t.Errorf("anneal infeasible: %s", annealEst.Reason)
	}
	// 500 reads × 200 sweeps × 4 spins × 2ns.
	if want := 500.0 * 200 * 4 * perFlipNS; annealEst.DurationNS != want {
		t.Errorf("anneal duration = %v, want %v", annealEst.DurationNS, want)
	}
	gate := findEstimate(t, ests, "gate.statevector")
	if gate.Feasible {
		t.Error("gate engine claims it can run an Ising problem")
	}

	// With no context at all the projection must use the reads and sweeps
	// the engine actually runs.
	bare := isingBundle(t, nil)
	ests, err = EstimateAll(bare)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Submit(bare, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := findEstimate(t, ests, "anneal.sa").DurationNS
	if want := float64(res.Samples) * anneal.DefaultSweeps * 4 * perFlipNS; got != want {
		t.Errorf("nil-context anneal duration = %v, want %v (%d reads run)", got, want, res.Samples)
	}
}

func TestEstimateScalesWithShots(t *testing.T) {
	small := qaoaBundle(t, ctxdesc.NewGate("gate.statevector", 100, 1))
	large := qaoaBundle(t, ctxdesc.NewGate("gate.statevector", 10000, 1))
	es, err := EstimateAll(small)
	if err != nil {
		t.Fatal(err)
	}
	el, err := EstimateAll(large)
	if err != nil {
		t.Fatal(err)
	}
	ds := findEstimate(t, es, "gate.statevector").DurationNS
	dl := findEstimate(t, el, "gate.statevector").DurationNS
	if dl <= ds {
		t.Errorf("duration did not scale with shots: %v vs %v", ds, dl)
	}
}

// TestEstimateIsWhatTheEngineRuns holds every estimate to the engine's own
// account of the same bundle: the transpile stats it reports, the width
// it simulates once a comm block distributes the circuit, its refusal,
// and the spins the sampler sweeps once the anneal block embeds.
func TestEstimateIsWhatTheEngineRuns(t *testing.T) {
	qft3 := func(allowTeleport bool) *bundle.Bundle {
		reg := qdt.NewPhaseRegister("reg_phase", "phase", 3)
		qft, err := algolib.NewQFT(reg, 0, true, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx := ctxdesc.NewGate("gate.statevector", 64, 1)
		ctx.Comm = &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 2, AllowTeleport: allowTeleport}
		b, err := bundle.New([]*qdt.DataType{reg}, qop.Sequence{qft, algolib.NewMeasurement(reg)}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	estimate := func(b *bundle.Bundle, engine string) Estimate {
		t.Helper()
		ests, err := EstimateAll(b)
		if err != nil {
			t.Fatal(err)
		}
		return findEstimate(t, ests, engine)
	}

	t.Run("distributed QFT", func(t *testing.T) {
		b := qft3(true)
		res, err := Submit(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stats := res.Meta["transpile"].(transpile.Stats)
		plan := res.Meta["comm"].(comm.Plan)
		est := estimate(b, "gate.statevector")
		if !est.Feasible {
			t.Fatalf("infeasible: %s", est.Reason)
		}
		if est.TwoQubitGates != stats.TwoQAfter || est.TwoQubitGates != 9 {
			t.Errorf("TwoQubitGates = %d, engine ran %d (want 9)", est.TwoQubitGates, stats.TwoQAfter)
		}
		if est.Depth != stats.DepthAfter || est.Depth != 22 {
			t.Errorf("Depth = %d, engine ran %d (want 22)", est.Depth, stats.DepthAfter)
		}
		if want := 3 + 2*plan.EPRPairs; est.PhysicalUnits != want || want != 17 {
			t.Errorf("PhysicalUnits = %d, engine simulated %d qubits (want 17)", est.PhysicalUnits, want)
		}
	})

	t.Run("refused distribution", func(t *testing.T) {
		b := qft3(false)
		_, err := Submit(b, Options{})
		if err == nil {
			t.Fatal("engine ran crossing gates with allow_teleport false")
		}
		est := estimate(b, "gate.statevector")
		if est.Feasible || est.Reason == "" || !strings.Contains(err.Error(), est.Reason) {
			t.Errorf("estimate %+v, engine said %q", est, err)
		}
	})

	t.Run("embedded anneal", func(t *testing.T) {
		reg := qdt.NewIsingVars("ising_vars", "s", 6)
		op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Complete(6)))
		if err != nil {
			t.Fatal(err)
		}
		ctx := ctxdesc.NewAnneal("anneal.sa", 40, 3)
		ctx.Anneal.Sweeps = 60
		ctx.Anneal.Embed = true
		ctx.Anneal.UnitCells = 2
		b, err := bundle.New([]*qdt.DataType{reg}, qop.Sequence{op}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Submit(b, Options{}); err != nil {
			t.Fatal(err)
		}
		est := estimate(b, "anneal.sa")
		if !est.Feasible || est.PhysicalUnits != 32 {
			t.Errorf("estimate %+v, want 32 swept spins", est)
		}
		if want := 40.0 * 60 * 32 * perFlipNS; est.DurationNS != want {
			t.Errorf("DurationNS = %v, want %v", est.DurationNS, want)
		}
	})
}

func TestEstimateInvalidBundle(t *testing.T) {
	b := qaoaBundle(t, nil)
	b.Operators = nil
	if _, err := EstimateAll(b); err == nil {
		t.Error("invalid bundle estimated")
	}
}
