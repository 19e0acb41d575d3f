package backend

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Sweeper is implemented by backends that can prepare a parameter sweep
// once and then serve its points one call at a time. b is the template
// bundle whose context carries the sweep block and whose operator
// parameters may hold "$name" markers.
//
// The contract is bit-identity: the result Point delivers for point i
// equals, entry for entry, what Execute(concrete) would return for that
// point's materialized bundle. A backend unable to honor that for some
// point must execute that point through its concrete path rather than
// approximate.
//
// With o.Profile set, each point's result carries its kernel-granular
// execution profile under Meta["profile"] (observational only — entries
// are unchanged); the serving layer aggregates the per-point tables.
type Sweeper interface {
	PrepareSweep(b *bundle.Bundle, o ExecOptions) (PreparedSweep, error)
}

// PreparedSweep serves the points of one prepared sweep. Point executes
// global point index i, whose materialized bundle — exactly what a caller
// would submit for that point alone — is concrete; it is safe for
// concurrent use, each call occupying o.Shards cores, and o.Stages is
// invoked on the calling goroutine. Close releases what the calls kept
// for reuse, once none is in flight.
type PreparedSweep interface {
	Point(i int, concrete *bundle.Bundle) (*result.Result, error)
	Close()
}

// gateSweep is the gate engine's prepared sweep: the template lowered with
// symbolic parameter references, transpiled and compiled once; a point is
// a Bind, a run on a reused sim.Runner and a decode. pp is nil when the
// template has no parametric form, and every point then runs concretely.
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

	mu   sync.Mutex
	idle []*sim.Runner // parked between Point calls: one per concurrent caller at most
}

// PrepareSweep implements Sweeper for the gate engine. Templates the
// parametric pipeline cannot express — contexts with comm/QEC/noise
// blocks, markers on an operator kind without a symbolic lowering,
// transpile options outside the parametric subset — prepare to a handle
// that runs every point through the concrete path on its own bundle, so
// every point keeps the bit-identity contract whichever path serves it.
func (g *Gate) PrepareSweep(b *bundle.Bundle, o ExecOptions) (PreparedSweep, error) {
	ctx := b.Context
	if ctx == nil || ctx.Sweep == nil {
		return nil, fmt.Errorf("backend: sweep execution without a sweep context block")
	}
	s := &gateSweep{g: g, o: o, points: ctx.Sweep.Points}
	noise, err := noiseFromOptions(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Comm != nil || ctx.QEC != nil || !noise.Zero() {
		return s, nil
	}
	lowered, err := algolib.LowerParametric(b.Operators, registers(b), ctx.Sweep.Params)
	if err != nil || !lowered.Circuit.HasRefs() {
		// Not symbolic (or nothing symbolic in it): the concrete bundles
		// still lower point by point.
		return s, nil
	}
	opts := transpile.FromContext(ctx)
	transpileStart := time.Now()
	tr, ok, err := transpile.TranspileParametric(lowered.Circuit, opts)
	if err != nil {
		return nil, err
	}
	if !ok {
		return s, nil
	}
	o.stage("transpile", transpileStart)
	compileStart := time.Now()
	pp, err := sim.CompileParametric(tr.Circuit)
	if err != nil {
		return s, nil
	}
	o.stage("compile", compileStart)
	if s.m = b.Operators.FinalMeasurement(); s.m != nil {
		if s.reg, err = measuredRegister(b, s.m); err != nil {
			return nil, err
		}
	}
	s.pp, s.tr, s.optLevel = pp, tr, opts.OptimizationLevel
	s.shots, s.seed = shotsAndSeed(ctx)
	return s, nil
}

func (s *gateSweep) Point(i int, concrete *bundle.Bundle) (*result.Result, error) {
	if i < 0 || i >= len(s.points) {
		return nil, fmt.Errorf("backend: point index %d out of range [0,%d)", i, len(s.points))
	}
	v := s.points[i]
	if s.pp == nil || s.optLevel >= 1 && transpile.ParamAngleZero(s.tr.Circuit, v) {
		// No template, or the concrete optimizer would drop this point's
		// zero-angle rotation — a structural change the template cannot
		// express.
		return s.g.Execute(concrete, s.o)
	}
	pl, err := s.pp.Bind(v)
	if err != nil {
		return nil, err
	}
	run, err := s.run(pl)
	if err != nil {
		return nil, err
	}
	res := &result.Result{Engine: s.g.engine, Samples: s.shots, Meta: map[string]any{"transpile": s.tr.Stats}}
	if run.Profile != nil {
		res.Meta["profile"] = run.Profile
	}
	if s.m != nil {
		if res.Entries, err = result.DecodeCounts(run.Counts, s.m.Result, s.reg); err != nil {
			return nil, err
		}
		res.Sort()
	}
	return res, nil
}

// run executes one bound plan on a parked Runner, or a new one when every
// Runner is in use: a caller that loops over points reuses one arena.
func (s *gateSweep) run(pl *sim.Plan) (*sim.Result, error) {
	var r *sim.Runner
	s.mu.Lock()
	if n := len(s.idle); n > 0 {
		r, s.idle = s.idle[n-1], s.idle[:n-1]
	}
	s.mu.Unlock()
	if r == nil {
		var err error
		if r, err = sim.NewRunner(s.tr.Circuit.NumQubits, s.o.Shards); err != nil {
			return nil, err
		}
	}
	run, err := r.Run(s.tr.Circuit, pl, sim.Options{Shots: s.shots, Seed: s.seed, Stages: s.o.Stages, Profile: s.o.Profile})
	s.mu.Lock()
	s.idle = append(s.idle, r)
	s.mu.Unlock()
	return run, err
}

func (s *gateSweep) Close() {
	for _, r := range s.idle {
		r.Close()
	}
	s.idle = nil
}
