// Package runtime is the middle layer's execution engine: it validates a
// submission bundle (the typed rules, which enforce every schema rule),
// selects a backend — from the explicit context or, absent one, from the
// intent artifacts' shape and cost hints, the scheduler role the paper's
// §2 cost_hint discussion motivates — prepares it there once and runs its
// points, and returns decoded results. Prepare gives the one handle every
// execution goes through: Submit is Prepare(b) then Run(0, b), and a sweep
// runs each point's BindPoint materialization on one handle. Handle.Run is
// the one place a result gets its intent_fingerprint.
package runtime

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/qop"
	"repro/internal/result"
)

// Options tune a submission: the shard grant, the per-stage timing
// callback and the profile flag an engine sees.
type Options = backend.ExecOptions

// SelectEngine picks an engine for a bundle with no explicit exec block:
// a bundle whose operators are a single Ising problem is annealing work;
// everything else goes to the gate simulator. Cost hints gate a guardrail:
// beyond MaxGateTwoQ two-qubit gates the statevector engine would be
// impractical and submission is refused rather than silently mis-placed.
func SelectEngine(b *bundle.Bundle) (string, error) {
	hasIsing := false
	onlyIsing := true
	for _, op := range b.Operators {
		switch op.RepKind {
		case qop.IsingProblem:
			hasIsing = true
		case qop.Measurement:
		default:
			onlyIsing = false
		}
	}
	if hasIsing && onlyIsing {
		return "anneal.sa", nil
	}
	if hasIsing {
		return "", fmt.Errorf("runtime: bundle mixes ISING_PROBLEM with gate-path operators; split it or set exec.engine explicitly")
	}
	hint, _ := b.Operators.TotalCostHint()
	if hint.TwoQ > MaxGateTwoQ {
		return "", fmt.Errorf("runtime: cost hint of %d two-qubit gates exceeds the statevector guardrail (%d); no registered engine can take this job", hint.TwoQ, MaxGateTwoQ)
	}
	return "gate.statevector", nil
}

// MaxGateTwoQ is the scheduler guardrail on hinted two-qubit counts.
const MaxGateTwoQ = 1_000_000

// ResolveEngine names the engine that runs b: the context's explicit
// exec.engine, else SelectEngine's choice. The serving tiers record it on
// a job without running anything.
func ResolveEngine(b *bundle.Bundle) (string, error) {
	if b.Context != nil && b.Context.Exec != nil && b.Context.Exec.Engine != "" {
		return b.Context.Exec.Engine, nil
	}
	return SelectEngine(b)
}

// Handle is a bundle prepared on its engine: validated, its engine
// resolved and — for a gate sweep template with a parametric form —
// lowered, transpiled and compiled once. Run is safe for concurrent use and
// occupies opts.Shards cores per call; how many run side by side is the
// caller's scheduling decision (the jobs pool's lanes) and never shows in
// a result. A Handle holds nothing to release; drop it when done.
type Handle struct {
	engine   string
	prepared backend.Prepared
	// sweep is set for a template: its points are BindPoint's, which
	// stamps each with a fresh intent fingerprint.
	sweep bool
}

// Prepare validates b, a plain bundle or a sweep template, once and
// prepares its engine to run points.
func Prepare(b *bundle.Bundle, opts Options) (*Handle, error) {
	if err := b.Validate(qop.ValidateOptions{}); err != nil {
		return nil, err
	}
	engine, err := ResolveEngine(b)
	if err != nil {
		return nil, err
	}
	be, err := backend.Get(engine)
	if err != nil {
		return nil, err
	}
	prepared, err := be.Prepare(b, opts)
	if err != nil {
		return nil, fmt.Errorf("runtime: engine %s: %w", engine, err)
	}
	return &Handle{engine: engine, prepared: prepared, sweep: b.Context != nil && b.Context.Sweep != nil}, nil
}

// Run executes point i; concrete is that point's materialized bundle (see
// bundle.BindPoint), or the prepared bundle itself when it is plain. The
// result, including its intent_fingerprint, is what Submit(concrete)
// produces.
func (h *Handle) Run(i int, concrete *bundle.Bundle) (*result.Result, error) {
	res, err := h.prepared.Run(i, concrete)
	if err != nil {
		if h.sweep {
			return nil, fmt.Errorf("runtime: engine %s: point %d: %w", h.engine, i, err)
		}
		return nil, fmt.Errorf("runtime: engine %s: %w", h.engine, err)
	}
	// A point's fingerprint is BindPoint's, fresh, so the per-point hot
	// path does not re-hash the whole bundle. A plain bundle's provenance
	// is the client's, and a stale one would reach the cached result every
	// twin is served from (CacheKey ignores provenance), so it is hashed.
	fp := ""
	if h.sweep && concrete.Provenance != nil {
		fp = concrete.Provenance.IntentFingerprint
	}
	if fp == "" {
		fp, _ = concrete.Fingerprint()
	}
	if fp != "" {
		if res.Meta == nil {
			res.Meta = map[string]any{}
		}
		res.Meta["intent_fingerprint"] = fp
	}
	return res, nil
}

// Submit validates and executes a plain bundle: one Prepare, one Run.
func Submit(b *bundle.Bundle, opts Options) (*result.Result, error) {
	if b.Context != nil && b.Context.Sweep != nil {
		return nil, fmt.Errorf("runtime: the bundle carries a sweep block; run its points with SubmitSweep")
	}
	h, err := Prepare(b, opts)
	if err != nil {
		return nil, err
	}
	return h.Run(0, b)
}

// SubmitSweep is the serial driver over a prepared sweep: it prepares b,
// executes the given points one after another on the calling goroutine —
// concrete[k] is the materialized bundle for point indices[k] — and
// invokes each per completed point with its global index.
func SubmitSweep(b *bundle.Bundle, concrete []*bundle.Bundle, indices []int, opts Options, each func(i int, res *result.Result) error) error {
	if len(concrete) != len(indices) {
		return fmt.Errorf("runtime: %d concrete bundles for %d indices", len(concrete), len(indices))
	}
	if b.Context == nil || b.Context.Sweep == nil {
		return fmt.Errorf("runtime: sweep submission without a sweep context block")
	}
	h, err := Prepare(b, opts)
	if err != nil {
		return err
	}
	for k, gi := range indices {
		res, err := h.Run(gi, concrete[k])
		if err != nil {
			return err
		}
		if err := each(gi, res); err != nil {
			return err
		}
	}
	return nil
}
