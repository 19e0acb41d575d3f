// Package runtime is the middle layer's execution engine: it validates a
// submission bundle (semantic checks plus JSON Schema conformance),
// selects a backend — from the explicit context or, absent one, from the
// intent artifacts' shape and cost hints, the scheduler role the paper's
// §2 cost_hint discussion motivates — executes it, and returns decoded
// results.
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

// prepare validates a bundle and resolves the backend that will run it.
func prepare(b *bundle.Bundle) (engine string, be backend.Backend, err error) {
	if err := b.Validate(qop.ValidateOptions{}); err != nil {
		return "", nil, err
	}
	if err := b.ValidateAgainstSchemas(); err != nil {
		return "", nil, err
	}
	if b.Context != nil && b.Context.Exec != nil {
		engine = b.Context.Exec.Engine
	}
	if engine == "" {
		if engine, err = SelectEngine(b); err != nil {
			return "", nil, err
		}
	}
	be, err = backend.Get(engine)
	return engine, be, err
}

// Submit validates and executes a bundle.
func Submit(b *bundle.Bundle, opts Options) (*result.Result, error) {
	engine, be, err := prepare(b)
	if err != nil {
		return nil, err
	}
	res, err := be.Execute(b, opts)
	if err != nil {
		return nil, fmt.Errorf("runtime: engine %s: %w", engine, err)
	}
	if fp, ferr := b.Fingerprint(); ferr == nil {
		if res.Meta == nil {
			res.Meta = map[string]any{}
		}
		res.Meta["intent_fingerprint"] = fp
	}
	return res, nil
}
