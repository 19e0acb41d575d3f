package backend

import (
	"fmt"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// gateSweep is the gate engine's prepared sweep template: lowered with
// symbolic parameter references, transpiled and compiled once; a point is
// a Bind, a sim.RunPlan — the call a plain job makes, on a spare arena of
// its width — and a decode.
type gateSweep struct {
	g      *Gate
	o      ExecOptions
	points [][]float64

	pp       *sim.ParamPlan
	tr       *transpile.Result
	optLevel int
	shots    int
	seed     uint64
	m        *qop.Operator
	reg      *qdt.DataType
}

// Prepare implements Backend for the gate engine. A sweep template with a
// parametric form prepares to a gateSweep. Anything else prepares to
// PerPoint over execute: a plain bundle, and a template the parametric
// pipeline cannot express — contexts with comm/QEC/noise blocks, markers
// on an operator kind without a symbolic lowering, transpile options
// outside the parametric subset — so every point keeps the bit-identity
// contract whichever path serves it.
func (g *Gate) Prepare(b *bundle.Bundle, o ExecOptions) (Prepared, error) {
	perPoint := PerPoint(g.execute, o)
	ctx := b.Context
	if ctx == nil || ctx.Sweep == nil || ctx.Comm != nil || ctx.QEC != nil {
		return perPoint, nil
	}
	noise, err := noiseFromOptions(ctx)
	if err != nil {
		return nil, err
	}
	if !noise.Zero() {
		return perPoint, nil
	}
	_, regs, opts := circuitSetup(b, false)
	lowered, err := algolib.LowerParametric(b.Operators, regs, ctx.Sweep.Params)
	if err != nil || !lowered.Circuit.HasRefs() {
		// Not symbolic (or nothing symbolic in it): the concrete bundles
		// still lower point by point.
		return perPoint, nil
	}
	transpileStart := time.Now()
	tr, ok, err := transpile.TranspileParametric(lowered.Circuit, opts)
	if err != nil {
		return nil, err
	}
	if !ok {
		return perPoint, nil
	}
	o.stage("transpile", transpileStart)
	compileStart := time.Now()
	pp, err := sim.CompileParametric(tr.Circuit)
	if err != nil {
		return perPoint, nil
	}
	o.stage("compile", compileStart)
	s := &gateSweep{g: g, o: o, points: ctx.Sweep.Points, pp: pp, tr: tr, optLevel: opts.OptimizationLevel}
	if s.m, s.reg, err = readout(b); err != nil {
		return nil, err
	}
	s.shots, s.seed = shotsAndSeed(ctx)
	return s, nil
}

func (s *gateSweep) Run(i int, concrete *bundle.Bundle) (*result.Result, error) {
	if i < 0 || i >= len(s.points) {
		return nil, fmt.Errorf("backend: point index %d out of range [0,%d)", i, len(s.points))
	}
	v := s.points[i]
	if s.optLevel >= 1 && transpile.ParamAngleZero(s.tr.Circuit, v) {
		// The concrete optimizer would drop this point's zero-angle
		// rotation — a structural change the template cannot express.
		return s.g.execute(concrete, s.o)
	}
	pl, err := s.pp.Bind(v)
	if err != nil {
		return nil, err
	}
	run, err := sim.RunPlan(s.tr.Circuit, pl, sim.Options{Shots: s.shots, Seed: s.seed, Shards: s.o.Shards, Stages: s.o.Stages, Profile: s.o.Profile})
	if err != nil {
		return nil, err
	}
	return s.g.result(s.shots, map[string]any{"transpile": s.tr.Stats}, run, s.m, s.reg)
}
