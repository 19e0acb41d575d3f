package backend

import (
	"fmt"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/embed"
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

// Execute realizes the Ising problem, optionally minor-embeds it onto a
// Chimera hardware graph per the anneal context, samples, unembeds, and
// decodes. The shard grant caps the goroutines the reads fan out over; the
// sampler has no stages or profiler, so the other options are ignored.
func (a *Anneal) Execute(b *bundle.Bundle, o ExecOptions) (*result.Result, error) {
	if err := b.Validate(qop.ValidateOptions{}); err != nil {
		return nil, err
	}
	var problem *qop.Operator
	for _, op := range b.Operators {
		switch op.RepKind {
		case qop.IsingProblem:
			if problem != nil {
				return nil, fmt.Errorf("backend: multiple ISING_PROBLEM descriptors")
			}
			problem = op
		case qop.Measurement:
			// Readout schema only; annealers measure implicitly at the
			// end of the anneal.
		default:
			return nil, fmt.Errorf("backend: anneal engine cannot realize rep_kind %q", op.RepKind)
		}
	}
	if problem == nil {
		return nil, fmt.Errorf("backend: anneal bundle contains no ISING_PROBLEM")
	}
	reg, err := b.QDT(problem.DomainQDT)
	if err != nil {
		return nil, err
	}
	model, err := algolib.IsingModelFromOp(problem, reg.Width)
	if err != nil {
		return nil, err
	}

	ctx := b.Context
	if ctx == nil {
		ctx = ctxdesc.New()
	}
	cfg := ctx.Anneal
	if cfg == nil {
		cfg = &ctxdesc.Anneal{NumReads: DefaultShots}
	}
	seed := uint64(0)
	if ctx.Exec != nil {
		seed = ctx.Exec.Seed
	}
	params := anneal.Params{
		NumReads: cfg.NumReads,
		Sweeps:   cfg.Sweeps,
		BetaMin:  cfg.BetaMin,
		BetaMax:  cfg.BetaMax,
		Schedule: cfg.Schedule,
		Seed:     seed,
		Workers:  o.Shards,
	}

	meta := map[string]any{}
	logicalCounts := map[uint64]int{}

	if cfg.Embed {
		cells := cfg.UnitCells
		if cells == 0 {
			cells = 2
		}
		hw, err := embed.Chimera(cells)
		if err != nil {
			return nil, err
		}
		if hw.N > 63 {
			return nil, fmt.Errorf("backend: chimera C(%d) has %d qubits, beyond the 63-spin sampler limit", cells, hw.N)
		}
		emb, err := embed.Find(model, hw)
		if err != nil {
			return nil, err
		}
		strength := cfg.ChainStrength
		phys, err := emb.EmbedModel(model, strength)
		if err != nil {
			return nil, err
		}
		if strength == 0 {
			strength = 2*model.MaxAbsCoupling() + 1
		}
		sampled, err := anneal.SampleModel(phys, params)
		if err != nil {
			return nil, err
		}
		info := EmbeddingInfo{
			Topology:       "chimera",
			UnitCells:      cells,
			PhysicalQubits: emb.PhysicalQubits(),
			MaxChainLength: emb.MaxChainLength(),
			ChainStrength:  strength,
		}
		for _, s := range sampled.Samples {
			logical, broken := emb.Unembed(s.Mask)
			logicalCounts[logical] += s.Occurrences
			info.BrokenChains += broken * s.Occurrences
		}
		meta["embedding"] = info
	} else {
		sampled, err := anneal.SampleModel(model, params)
		if err != nil {
			return nil, err
		}
		for _, s := range sampled.Samples {
			logicalCounts[s.Mask] += s.Occurrences
		}
	}

	schema := problem.Result
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
		entries[i].Energy = model.EnergyBits(entries[i].Index)
		entries[i].HasEnergy = true
	}
	res := &result.Result{Engine: a.engine, Samples: cfg.NumReads, Entries: entries, Meta: meta}
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
