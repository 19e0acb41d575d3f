package runtime

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/result"
)

// Sweep is a prepared sweep: the template bundle validated, its engine
// resolved and — on backends implementing backend.Sweeper — lowered,
// transpiled and compiled once. Point is safe for concurrent use and
// occupies opts.Shards cores per call; how many run side by side is the
// caller's scheduling decision (the jobs pool's lanes) and never shows in
// a result.
type Sweep struct {
	engine   string
	opts     Options
	prepared backend.PreparedSweep // nil: the engine has no parametric path
}

// PrepareSweep validates the sweep template bundle once and prepares its
// engine to serve points. Close the handle when done.
func PrepareSweep(b *bundle.Bundle, opts Options) (*Sweep, error) {
	if b.Context == nil || b.Context.Sweep == nil {
		return nil, fmt.Errorf("runtime: sweep submission without a sweep context block")
	}
	engine, be, err := prepare(b)
	if err != nil {
		return nil, err
	}
	s := &Sweep{engine: engine, opts: opts}
	if sweeper, ok := be.(backend.Sweeper); ok {
		s.prepared, err = sweeper.PrepareSweep(b, opts)
		if err != nil {
			return nil, fmt.Errorf("runtime: engine %s: %w", engine, err)
		}
	}
	return s, nil
}

// Point executes global point index i of the sweep; concrete is that
// point's materialized bundle (see bundle.BindPoint). The engine binds the
// point into its compiled template, or — engines without a parametric
// path, and points the template cannot serve exactly — runs the concrete
// bundle. Either way the result, including its intent_fingerprint, is
// what Submit(concrete) would have produced.
func (s *Sweep) Point(i int, concrete *bundle.Bundle) (*result.Result, error) {
	if s.prepared == nil {
		res, err := Submit(concrete, s.opts)
		if err != nil {
			return nil, fmt.Errorf("runtime: point %d: %w", i, err)
		}
		return res, nil
	}
	res, err := s.prepared.Point(i, concrete)
	if err != nil {
		return nil, fmt.Errorf("runtime: engine %s: point %d: %w", s.engine, i, err)
	}
	// BindPoint stamps the bound bundle's provenance with a fresh intent
	// fingerprint; reuse it rather than re-hashing the whole bundle on the
	// per-point hot path.
	fp := ""
	if concrete.Provenance != nil {
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

// Close releases what the engine kept between points.
func (s *Sweep) Close() {
	if s.prepared != nil {
		s.prepared.Close()
	}
}

// SubmitSweep is the serial driver over a prepared sweep: it prepares b,
// executes the given points one after another on the calling goroutine —
// concrete[k] is the materialized bundle for point indices[k] — and
// invokes each per completed point with its global index.
func SubmitSweep(b *bundle.Bundle, concrete []*bundle.Bundle, indices []int, opts Options, each func(i int, res *result.Result) error) error {
	if len(concrete) != len(indices) {
		return fmt.Errorf("runtime: %d concrete bundles for %d indices", len(concrete), len(indices))
	}
	s, err := PrepareSweep(b, opts)
	if err != nil {
		return err
	}
	defer s.Close()
	for k, gi := range indices {
		res, err := s.Point(gi, concrete[k])
		if err != nil {
			return err
		}
		if err := each(gi, res); err != nil {
			return err
		}
	}
	return nil
}
