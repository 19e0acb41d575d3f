package repro

import (
	"testing"

	"repro/internal/algolib"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/schemas"
)

// TestSchemaAndSemanticValidationAgree: everything algolib builds passes
// both validation layers.
func TestSchemaAndSemanticValidationAgree(t *testing.T) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	phase := qdt.NewPhaseRegister("reg_phase", "phase", 6)
	builders := []func() (*qop.Operator, error){
		func() (*qop.Operator, error) { return algolib.NewQFT(phase, 1, true, false) },
		func() (*qop.Operator, error) { return algolib.NewPrepUniform(reg) },
		func() (*qop.Operator, error) { return algolib.NewMixerRX(reg, 0.5) },
		func() (*qop.Operator, error) { return algolib.NewIsingCostPhase(reg, graph.Cycle(4), 0.4) },
		func() (*qop.Operator, error) { return algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Cycle(4))) },
		func() (*qop.Operator, error) { return algolib.NewAdder(phase, 13) },
		func() (*qop.Operator, error) { return algolib.NewGroverOracle(reg, []uint64{5}) },
		func() (*qop.Operator, error) { return algolib.NewGroverDiffusion(reg) },
		func() (*qop.Operator, error) { return algolib.NewMeasurement(reg), nil },
	}
	for i, build := range builders {
		op, err := build()
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		raw, err := op.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := schemas.Validate("qod.schema.json", raw); err != nil {
			t.Errorf("builder %d (%s) fails schema: %v", i, op.Name, err)
		}
	}
}
