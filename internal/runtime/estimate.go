package runtime

import (
	"fmt"
	"sort"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/pulse"
	"repro/internal/qop"
	"repro/internal/transpile"
)

// Estimate is a per-engine pre-execution cost projection — the scheduler
// capability the paper's §2 motivates: "without this information, a
// scheduler cannot choose an appropriate backend and topology, or
// estimate queue and runtime."
type Estimate struct {
	Engine string
	// Feasible reports whether the engine can realize the bundle at all.
	Feasible bool
	Reason   string // why not, when infeasible
	// DurationNS projects wall time per shot/read batch: for gate/pulse
	// engines the pulse-model schedule length times the sample count;
	// for anneal engines sweeps × spins × a per-flip constant.
	DurationNS float64
	// Resources summarizes the dominant resource counts.
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
		out = append(out, estimateFor(b, engine))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Engine < out[j].Engine })
	return out, nil
}

func estimateFor(b *bundle.Bundle, engine string) Estimate {
	est := Estimate{Engine: engine}
	isIsingOnly := true
	hasIsing := false
	for _, op := range b.Operators {
		switch op.RepKind {
		case qop.IsingProblem:
			hasIsing = true
		case qop.Measurement:
		default:
			isIsingOnly = false
		}
	}
	switch engine {
	case "anneal.sa":
		if !hasIsing || !isIsingOnly {
			est.Reason = "anneal engines realize only ISING_PROBLEM bundles"
			return est
		}
		reg := b.QDTs[0]
		// The engine's own defaults: Anneal.Execute runs DefaultShots reads
		// when the context has no anneal block, the sampler DefaultSweeps.
		reads := backend.DefaultShots
		sweeps := anneal.DefaultSweeps
		if b.Context != nil && b.Context.Anneal != nil {
			if b.Context.Anneal.NumReads > 0 {
				reads = b.Context.Anneal.NumReads
			}
			if b.Context.Anneal.Sweeps > 0 {
				sweeps = b.Context.Anneal.Sweeps
			}
		}
		est.Feasible = true
		est.PhysicalUnits = reg.Width
		est.DurationNS = float64(reads) * float64(sweeps) * float64(reg.Width) * perFlipNS
		return est
	case "gate.statevector", "pulse.model":
		if hasIsing {
			est.Reason = "ISING_PROBLEM has no gate realization"
			return est
		}
		regs := algolib.Registers{}
		for _, d := range b.QDTs {
			regs[d.ID] = d
		}
		lowered, err := algolib.Lower(b.Operators, regs)
		if err != nil {
			est.Reason = fmt.Sprintf("lowering failed: %v", err)
			return est
		}
		opts := transpile.FromContext(b.Context)
		if engine == "pulse.model" && len(opts.BasisGates) == 0 {
			opts.BasisGates = []string{"sx", "rz", "cx"}
		}
		tr, err := transpile.Transpile(lowered.Circuit, opts)
		if err != nil {
			est.Reason = fmt.Sprintf("transpilation failed: %v", err)
			return est
		}
		var pulseCtx *ctxdesc.Pulse
		if b.Context != nil {
			pulseCtx = b.Context.Pulse
		}
		sched, err := pulse.Lower(tr.Circuit, pulse.FromContext(pulseCtx))
		if err != nil {
			// Circuits with native ops (permute/init/diagonal) have no
			// pulse schedule; the gate simulator still takes them.
			if engine == "pulse.model" {
				est.Reason = fmt.Sprintf("no pulse realization: %v", err)
				return est
			}
			sched = nil
		}
		shots := backend.DefaultShots
		if b.Context != nil && b.Context.Exec != nil && b.Context.Exec.Samples > 0 {
			shots = b.Context.Exec.Samples
		}
		est.Feasible = true
		est.TwoQubitGates = tr.Stats.TwoQAfter
		est.Depth = tr.Stats.DepthAfter
		est.PhysicalUnits = tr.Circuit.NumQubits
		if sched != nil {
			est.DurationNS = sched.TotalDurationNS * float64(shots)
		}
		return est
	}
	est.Reason = "unknown engine family"
	return est
}
