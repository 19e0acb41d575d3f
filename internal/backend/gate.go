package backend

import (
	"fmt"

	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qec"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/sim"
)

// Gate is the gate-model statevector backend.
type Gate struct {
	engine string
}

// Name implements Backend.
func (g *Gate) Name() string { return g.engine }

// execute simulates the bundle's gate realization (RealizeCircuit) across
// o.Shards persistent shards, with the QEC overhead and noise model its
// context asks for, and decodes through the final measurement's result
// schema. o.Stages hears "transpile" from the realization and
// "compile"/"execute"/"sample" from the simulator (a noisy context's
// trajectories sample as they go: "compile" and "execute"); o.Profile
// lands the per-kernel table in Meta["profile"] (trajectories are many
// executions of one plan, not one kernel table, so noisy contexts return
// none).
func (g *Gate) execute(b *bundle.Bundle, o ExecOptions) (*result.Result, error) {
	r, err := RealizeCircuit(b, false, o)
	if err != nil {
		return nil, err
	}
	meta := map[string]any{"transpile": r.Transpiled.Stats}
	if r.Comm != nil {
		meta["comm"] = *r.Comm
	}
	if r.Context.QEC != nil {
		overhead, err := qec.Estimate(r.Context.QEC, r.Logical.NumQubits)
		if err != nil {
			return nil, err
		}
		meta["qec"] = *overhead
	}
	noise, err := noiseFromOptions(r.Context)
	if err != nil {
		return nil, err
	}
	if !noise.Zero() {
		meta["noise"] = noise
	}
	// One call for every gate job: a zero model falls through to sim.Run.
	run, err := sim.RunNoisy(r.Circuit, noise, sim.Options{Shots: r.Shots, Seed: r.Seed, Shards: o.Shards, Stages: o.Stages, Profile: o.Profile})
	if err != nil {
		return nil, err
	}
	m, reg, err := readout(b)
	if err != nil {
		return nil, err
	}
	return g.result(r.Shots, meta, run, m, reg)
}

// result is the tail every gate run shares: the run's profile joins meta,
// and the counts decode through the final measurement m's schema into the
// register reg, sorted. m is nil when the bundle measures nothing.
func (g *Gate) result(shots int, meta map[string]any, run *sim.Result, m *qop.Operator, reg *qdt.DataType) (*result.Result, error) {
	if run.Profile != nil {
		meta["profile"] = run.Profile
	}
	res := &result.Result{Engine: g.engine, Samples: shots, Meta: meta}
	if m != nil {
		entries, err := result.DecodeCounts(run.Counts, m.Result, reg)
		if err != nil {
			return nil, err
		}
		res.Entries = entries
		res.Sort()
	}
	return res, nil
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

// readout returns the bundle's final measurement and the register its
// clbits decode into, or nils when the bundle measures nothing.
func readout(b *bundle.Bundle) (*qop.Operator, *qdt.DataType, error) {
	m := b.Operators.FinalMeasurement()
	if m == nil {
		return nil, nil, nil
	}
	if m.Result == nil {
		return nil, nil, fmt.Errorf("backend: final MEASUREMENT carries no result schema")
	}
	if len(m.Result.ClbitOrder) == 0 {
		return nil, nil, fmt.Errorf("backend: empty clbit order")
	}
	regID, _, err := qop.ParseBitRef(m.Result.ClbitOrder[0])
	if err != nil {
		return nil, nil, err
	}
	reg, err := b.QDT(regID)
	return m, reg, err
}
