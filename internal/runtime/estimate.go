package runtime

import (
	"sort"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/pulse"
	"repro/internal/qop"
)

// Estimate is a per-engine pre-execution cost projection — the scheduler
// capability the paper's §2 motivates: "without this information, a
// scheduler cannot choose an appropriate backend and topology, or
// estimate queue and runtime." It prices what the engine would run, its
// realization: the circuit transpiled and, under a comm
// block, distributed; the model the sampler sweeps, embedded when asked.
type Estimate struct {
	Engine string
	// Feasible reports whether the engine can realize the bundle at all.
	Feasible bool
	Reason   string // the engine's error, when infeasible
	// DurationNS projects wall time per shot/read batch: for gate/pulse
	// engines the transpiled circuit's pulse-model schedule times the
	// sample count; for anneal engines reads × sweeps × spins × a constant.
	DurationNS float64
	// Resources: the transpiled circuit's two-qubit gates and depth, and
	// the qubits simulated (data + 2·EPR pairs under comm) or spins swept.
	TwoQubitGates int
	Depth         int
	PhysicalUnits int // qubits or spins
}

// perFlipNS is the nominal Metropolis step cost used for anneal
// projections (arbitrary but fixed; estimates are for *comparing*
// engines, not absolute prediction).
const perFlipNS = 2.0

// EstimateAll projects the bundle onto every registered engine family
// (one estimate per family representative), sorted by engine name.
func EstimateAll(b *bundle.Bundle) ([]Estimate, error) {
	if err := b.Validate(qop.ValidateOptions{}); err != nil {
		return nil, err
	}
	engines := []string{"gate.statevector", "anneal.sa", "pulse.model"}
	out := make([]Estimate, 0, len(engines))
	for _, engine := range engines {
		est, err := estimateFor(b, engine)
		if err != nil {
			est = Estimate{Engine: engine, Reason: err.Error()}
		}
		out = append(out, est)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Engine < out[j].Engine })
	return out, nil
}

// estimateFor prices the engine family's realization of b, or returns why
// the engine cannot run it.
func estimateFor(b *bundle.Bundle, engine string) (Estimate, error) {
	est := Estimate{Engine: engine, Feasible: true}
	if engine == "anneal.sa" {
		r, err := backend.RealizeAnneal(b)
		if err != nil {
			return est, err
		}
		est.PhysicalUnits = r.Model.N
		est.DurationNS = float64(r.Params.NumReads) * float64(r.Params.Sweeps) * float64(r.Model.N) * perFlipNS
		return est, nil
	}
	isPulse := engine == "pulse.model"
	r, err := backend.RealizeCircuit(b, isPulse, backend.ExecOptions{})
	if err != nil {
		return est, err
	}
	est.TwoQubitGates = r.Transpiled.Stats.TwoQAfter
	est.Depth = r.Transpiled.Stats.DepthAfter
	est.PhysicalUnits = r.Circuit.NumQubits
	sched, err := pulse.Lower(r.Transpiled.Circuit, pulse.FromContext(r.Context.Pulse))
	switch {
	case err == nil:
		est.DurationNS = sched.TotalDurationNS * float64(r.Shots)
	case isPulse:
		return est, err
	}
	// Otherwise the circuit holds native ops (permute/init/diagonal),
	// which have no pulse schedule; the gate simulator still takes them.
	return est, nil
}
