package backend

import (
	"fmt"
	"time"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/comm"
	"repro/internal/ctxdesc"
	"repro/internal/embed"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// CircuitRealization is what the gate and pulse engines run for a bundle.
type CircuitRealization struct {
	Context    *ctxdesc.Context  // the bundle's, or the defaults
	Logical    *circuit.Circuit  // the lowered circuit
	Transpiled *transpile.Result // its Stats are Meta["transpile"]
	// Circuit is what a gate engine simulates: Transpiled.Circuit, or its
	// distribution over EPR ancillas under a comm block, whose plan is Comm.
	Circuit *circuit.Circuit
	Comm    *comm.Plan
	Shots   int
	Seed    uint64
}

// RealizeCircuit lowers the bundle, transpiles it under the context's
// target and, for a gate engine under a comm block, distributes it. pulse
// selects the pulse engine's realization, which always takes the Listing-4
// basis and never distributes. o.Stages hears "transpile".
func RealizeCircuit(b *bundle.Bundle, pulse bool, o ExecOptions) (*CircuitRealization, error) {
	ctx, regs, opts := circuitSetup(b, pulse)
	lowered, err := algolib.Lower(b.Operators, regs)
	if err != nil {
		return nil, err
	}
	transpileStart := time.Now()
	tr, err := transpile.Transpile(lowered.Circuit, opts)
	if err != nil {
		return nil, err
	}
	o.stage("transpile", transpileStart)
	r := &CircuitRealization{Context: ctx, Logical: lowered.Circuit, Transpiled: tr, Circuit: tr.Circuit}
	r.Shots, r.Seed = shotsAndSeed(ctx)
	if ctx.Comm != nil && !pulse {
		dist, err := comm.Distribute(tr.Circuit, ctx.Comm)
		if err != nil {
			return nil, err
		}
		if dist.Circuit.NumQubits > sim.MaxQubits {
			return nil, fmt.Errorf("backend: distributed circuit needs %d qubits (> %d); use comm.Analyze for accounting-only runs", dist.Circuit.NumQubits, sim.MaxQubits)
		}
		r.Circuit, r.Comm = dist.Circuit, dist.Plan
	}
	return r, nil
}

// circuitSetup is what lowering and transpilation start from: the context
// (the defaults when the bundle has none), the register table and the
// transpile options. Pulse hardware drives a calibrated native set, and
// distribution needs a CX-only two-qubit vocabulary, so both take the
// Listing-4 basis when the context names none.
func circuitSetup(b *bundle.Bundle, pulse bool) (*ctxdesc.Context, algolib.Registers, transpile.Options) {
	ctx := b.Context
	if ctx == nil {
		ctx = ctxdesc.New()
	}
	regs := algolib.Registers{}
	for _, d := range b.QDTs {
		regs[d.ID] = d
	}
	opts := transpile.FromContext(ctx)
	if (pulse || ctx.Comm != nil) && len(opts.BasisGates) == 0 {
		opts.BasisGates = []string{"sx", "rz", "cx"}
	}
	return ctx, regs, opts
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

// AnnealRealization is what an anneal engine runs for a bundle.
type AnnealRealization struct {
	Problem  *qop.Operator // the ISING_PROBLEM
	Register *qdt.DataType // its domain
	// Model is what the sampler sweeps: Logical, the problem's model, or
	// its minor embedding when the anneal block asks for one.
	Logical, Model *ising.Model
	Params         anneal.Params // reads, sweeps and seed; Workers is the caller's

	embedding *embed.Embedding // nil unless embedded
	info      EmbeddingInfo    // Meta["embedding"] before sampling
}

// maxUnitCells is the largest Chimera side the sampler can sweep: C(m)
// has 8·m² qubits and the sampler's masks hold 63 spins.
const maxUnitCells = 2

// RealizeAnneal finds the bundle's one ISING_PROBLEM (a MEASUREMENT is
// tolerated for its result schema), builds its model, resolves the reads,
// sweeps and seed, and minor-embeds the model onto a Chimera graph when
// the anneal block asks.
func RealizeAnneal(b *bundle.Bundle) (*AnnealRealization, error) {
	r := &AnnealRealization{}
	for _, op := range b.Operators {
		switch op.RepKind {
		case qop.IsingProblem:
			if r.Problem != nil {
				return nil, fmt.Errorf("backend: multiple ISING_PROBLEM descriptors")
			}
			r.Problem = op
		case qop.Measurement:
			// Readout schema only; annealers measure implicitly at the
			// end of the anneal.
		default:
			return nil, fmt.Errorf("backend: anneal engine cannot realize rep_kind %q", op.RepKind)
		}
	}
	if r.Problem == nil {
		return nil, fmt.Errorf("backend: anneal bundle contains no ISING_PROBLEM")
	}
	var err error
	if r.Register, err = b.QDT(r.Problem.DomainQDT); err != nil {
		return nil, err
	}
	if r.Logical, err = algolib.IsingModelFromOp(r.Problem, r.Register.Width); err != nil {
		return nil, err
	}
	r.Model = r.Logical

	ctx := b.Context
	if ctx == nil {
		ctx = ctxdesc.New()
	}
	cfg := ctx.Anneal
	if cfg == nil {
		cfg = &ctxdesc.Anneal{NumReads: DefaultShots}
	}
	r.Params = anneal.Params{NumReads: cfg.NumReads, Sweeps: cfg.Sweeps, BetaMin: cfg.BetaMin, BetaMax: cfg.BetaMax, Schedule: cfg.Schedule}
	if r.Params.Sweeps == 0 {
		r.Params.Sweeps = anneal.DefaultSweeps
	}
	if ctx.Exec != nil {
		r.Params.Seed = ctx.Exec.Seed
	}
	if !cfg.Embed {
		return r, nil
	}

	cells := cfg.UnitCells
	if cells == 0 {
		cells = 2
	}
	// Refused before the graph, 8·m² adjacency lists, is built.
	if cells > maxUnitCells {
		return nil, fmt.Errorf("backend: anneal.unit_cells %d exceeds %d: chimera C(m) has 8·m² qubits, beyond the 63-spin sampler limit", cells, maxUnitCells)
	}
	hw, err := embed.Chimera(cells)
	if err != nil {
		return nil, err
	}
	if r.embedding, err = embed.Find(r.Logical, hw); err != nil {
		return nil, err
	}
	strength := cfg.ChainStrength
	if r.Model, err = r.embedding.EmbedModel(r.Logical, strength); err != nil {
		return nil, err
	}
	if strength == 0 {
		strength = 2*r.Logical.MaxAbsCoupling() + 1
	}
	r.info = EmbeddingInfo{
		Topology:       "chimera",
		UnitCells:      cells,
		PhysicalQubits: r.embedding.PhysicalQubits(),
		MaxChainLength: r.embedding.MaxChainLength(),
		ChainStrength:  strength,
	}
	return r, nil
}
