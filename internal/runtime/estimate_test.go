package runtime

import (
	"testing"

	"repro/internal/anneal"
	"repro/internal/ctxdesc"
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

func TestEstimateInvalidBundle(t *testing.T) {
	b := qaoaBundle(t, nil)
	b.Operators = nil
	if _, err := EstimateAll(b); err == nil {
		t.Error("invalid bundle estimated")
	}
}
