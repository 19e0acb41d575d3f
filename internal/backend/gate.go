package backend

import (
	"fmt"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/comm"
	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qec"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Gate is the gate-model statevector backend.
type Gate struct {
	engine string
}

// Name implements Backend.
func (g *Gate) Name() string { return g.engine }

// Execute lowers the descriptor sequence to a circuit, transpiles it
// under the context's target, consults the comm and QEC context services,
// simulates across o.Shards persistent shards, and decodes through the
// final measurement's result schema. o.Stages hears "transpile" here and
// "compile"/"execute"/"sample" from the simulator (a noisy context's
// trajectories sample as they go: "compile" and "execute"); o.Profile
// lands the per-kernel table in Meta["profile"] (trajectories are many
// executions of one plan, not one kernel table, so noisy contexts return
// none).
func (g *Gate) Execute(b *bundle.Bundle, o ExecOptions) (*result.Result, error) {
	if err := b.Validate(qop.ValidateOptions{}); err != nil {
		return nil, err
	}
	lowered, err := algolib.Lower(b.Operators, registers(b))
	if err != nil {
		return nil, err
	}

	ctx := b.Context
	if ctx == nil {
		ctx = ctxdesc.New()
	}
	opts := transpile.FromContext(ctx)

	// Distribution requires a CX-only two-qubit vocabulary; force the
	// Listing-4 basis when a comm block is present and none was given.
	if ctx.Comm != nil && len(opts.BasisGates) == 0 {
		opts.BasisGates = []string{"sx", "rz", "cx"}
	}

	meta := map[string]any{}
	circ := lowered.Circuit

	transpileStart := time.Now()
	tr, err := transpile.Transpile(circ, opts)
	if err != nil {
		return nil, err
	}
	o.stage("transpile", transpileStart)
	circ = tr.Circuit
	meta["transpile"] = tr.Stats

	if ctx.Comm != nil {
		dist, err := comm.Distribute(circ, ctx.Comm)
		if err != nil {
			return nil, err
		}
		if dist.Circuit.NumQubits > sim.MaxQubits {
			return nil, fmt.Errorf("backend: distributed circuit needs %d qubits (> %d); use comm.Analyze for accounting-only runs", dist.Circuit.NumQubits, sim.MaxQubits)
		}
		circ = dist.Circuit
		meta["comm"] = *dist.Plan
	}

	if ctx.QEC != nil {
		overhead, err := qec.Estimate(ctx.QEC, lowered.Circuit.NumQubits)
		if err != nil {
			return nil, err
		}
		meta["qec"] = *overhead
	}

	shots, seed := shotsAndSeed(ctx)
	noise, err := noiseFromOptions(ctx)
	if err != nil {
		return nil, err
	}
	if !noise.Zero() {
		meta["noise"] = noise
	}
	// One call for every gate job: a zero model falls through to sim.Run.
	run, err := sim.RunNoisy(circ, noise, sim.Options{Shots: shots, Seed: seed, Shards: o.Shards, Stages: o.Stages, Profile: o.Profile})
	if err != nil {
		return nil, err
	}
	if run.Profile != nil {
		meta["profile"] = run.Profile
	}

	res := &result.Result{Engine: g.engine, Samples: shots, Meta: meta}
	if m := b.Operators.FinalMeasurement(); m != nil {
		reg, err := measuredRegister(b, m)
		if err != nil {
			return nil, err
		}
		entries, err := result.DecodeCounts(run.Counts, m.Result, reg)
		if err != nil {
			return nil, err
		}
		res.Entries = entries
		res.Sort()
	}
	return res, nil
}

// registers is the register table lowering takes.
func registers(b *bundle.Bundle) algolib.Registers {
	regs := algolib.Registers{}
	for _, d := range b.QDTs {
		regs[d.ID] = d
	}
	return regs
}

// shotsAndSeed resolves the sample count and seed a gate job runs with.
func shotsAndSeed(ctx *ctxdesc.Context) (shots int, seed uint64) {
	shots = DefaultShots
	if ctx.Exec != nil {
		if ctx.Exec.Samples > 0 {
			shots = ctx.Exec.Samples
		}
		seed = ctx.Exec.Seed
	}
	return shots, seed
}

// noiseFromOptions reads the engine-specific noise block from
// exec.options (the context's free-form options field):
//
//	"options": {"noise": {"prob_1q": 0.001, "prob_2q": 0.01, "readout_flip": 0.02}}
func noiseFromOptions(ctx *ctxdesc.Context) (sim.NoiseModel, error) {
	var nm sim.NoiseModel
	if ctx.Exec == nil || ctx.Exec.Options == nil {
		return nm, nil
	}
	raw, ok := ctx.Exec.Options["noise"]
	if !ok {
		return nm, nil
	}
	block, ok := raw.(map[string]any)
	if !ok {
		return nm, fmt.Errorf("backend: exec.options.noise is %T, want object", raw)
	}
	read := func(key string) (float64, error) {
		v, present := block[key]
		if !present {
			return 0, nil
		}
		f, isF := v.(float64)
		if !isF {
			return 0, fmt.Errorf("backend: noise.%s is %T, want number", key, v)
		}
		return f, nil
	}
	var err error
	if nm.Prob1Q, err = read("prob_1q"); err != nil {
		return nm, err
	}
	if nm.Prob2Q, err = read("prob_2q"); err != nil {
		return nm, err
	}
	if nm.ReadoutFlip, err = read("readout_flip"); err != nil {
		return nm, err
	}
	return nm, nm.Validate()
}

func measuredRegister(b *bundle.Bundle, m *qop.Operator) (*qdt.DataType, error) {
	if m.Result == nil {
		return nil, fmt.Errorf("backend: final MEASUREMENT carries no result schema")
	}
	if len(m.Result.ClbitOrder) == 0 {
		return nil, fmt.Errorf("backend: empty clbit order")
	}
	regID, _, err := qop.ParseBitRef(m.Result.ClbitOrder[0])
	if err != nil {
		return nil, err
	}
	return b.QDT(regID)
}
