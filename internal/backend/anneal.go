package backend

import (
	"fmt"

	"repro/internal/anneal"
	"repro/internal/bundle"
	"repro/internal/qop"
	"repro/internal/result"
)

// Anneal is the simulated-annealing backend (D-Wave Ocean neal
// substitute). It consumes the paper's §5 anneal-path bundle: a single
// ISING_PROBLEM operator descriptor (an optional trailing MEASUREMENT is
// tolerated and used only for its result schema).
type Anneal struct {
	engine string
}

// Name implements Backend.
func (a *Anneal) Name() string { return a.engine }

// EmbeddingInfo is the meta record attached when minor embedding runs.
type EmbeddingInfo struct {
	Topology       string
	UnitCells      int
	PhysicalQubits int
	MaxChainLength int
	ChainStrength  float64
	BrokenChains   int // total broken chains observed across reads
}

// Prepare implements Backend: an anneal bundle keeps nothing between
// points, so each point samples its own concrete bundle.
func (a *Anneal) Prepare(_ *bundle.Bundle, o ExecOptions) (Prepared, error) {
	return PerPoint(a.execute, o), nil
}

// execute samples the bundle's anneal realization (RealizeAnneal),
// unembeds when it was embedded, and decodes. The shard grant caps the
// goroutines the reads fan out over; the sampler has no stages or
// profiler, so the other options are ignored.
func (a *Anneal) execute(b *bundle.Bundle, o ExecOptions) (*result.Result, error) {
	r, err := RealizeAnneal(b)
	if err != nil {
		return nil, err
	}
	params := r.Params
	params.Workers = o.Shards
	sampled, err := anneal.SampleModel(r.Model, params)
	if err != nil {
		return nil, err
	}
	meta := map[string]any{}
	logicalCounts := map[uint64]int{}
	info := r.info
	for _, s := range sampled.Samples {
		logical := s.Mask
		if r.embedding != nil {
			var broken int
			logical, broken = r.embedding.Unembed(s.Mask)
			info.BrokenChains += broken * s.Occurrences
		}
		logicalCounts[logical] += s.Occurrences
	}
	if r.embedding != nil {
		meta["embedding"] = info
	}

	reg := r.Register
	schema := r.Problem.Result
	if m := b.Operators.FinalMeasurement(); m != nil && m.Result != nil {
		schema = m.Result
	}
	if schema == nil {
		schema = qop.DefaultResultSchema(reg.ID, reg.Width, string(reg.MeasurementSemantics), string(reg.BitOrder))
	}
	// The sampler's masks are register-indexed already: clbit i = spin i.
	counts, err := maskCountsToClbits(logicalCounts, schema)
	if err != nil {
		return nil, err
	}
	entries, err := result.DecodeCounts(counts, schema, reg)
	if err != nil {
		return nil, err
	}
	for i := range entries {
		entries[i].Energy = r.Logical.EnergyBits(entries[i].Index)
		entries[i].HasEnergy = true
	}
	res := &result.Result{Engine: a.engine, Samples: r.Params.NumReads, Entries: entries, Meta: meta}
	res.Sort()
	return res, nil
}

// maskCountsToClbits re-expresses register-bit-indexed masks in the
// schema's clbit indexing so DecodeCounts can apply its single decoding
// path.
func maskCountsToClbits(masks map[uint64]int, schema *qop.ResultSchema) (map[uint64]int, error) {
	bits := make([]int, len(schema.ClbitOrder))
	for cb, ref := range schema.ClbitOrder {
		_, bit, err := qop.ParseBitRef(ref)
		if err != nil {
			return nil, fmt.Errorf("backend: clbit %d: %w", cb, err)
		}
		bits[cb] = bit
	}
	out := make(map[uint64]int, len(masks))
	for mask, n := range masks {
		var key uint64
		for cb, bit := range bits {
			if mask>>uint(bit)&1 == 1 {
				key |= 1 << uint(cb)
			}
		}
		out[key] += n
	}
	return out, nil
}
