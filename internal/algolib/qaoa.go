package algolib

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
)

// NewIsingCostPhase builds one QAOA cost layer: e^{-iγ Σ w_uv Z_u Z_v}
// over the problem graph, carried as edge/weight arrays exactly as the
// paper's Fig. 2 describes ("each ISING_COST_PHASE carries a phase angle
// γ and the problem graph (edges, weights)").
func NewIsingCostPhase(reg *qdt.DataType, g *graph.Graph, gamma float64) (*qop.Operator, error) {
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	if g.N != reg.Width {
		return nil, fmt.Errorf("algolib: graph has %d vertices, register width %d", g.N, reg.Width)
	}
	op := newOp("ising_cost_phase", qop.IsingCostPhase, reg.ID)
	op.SetParam("gamma", gamma)
	edges := make([]any, len(g.Edges))
	weights := make([]any, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = []any{float64(e.U), float64(e.V)}
		weights[i] = e.Weight
	}
	op.SetParam("edges", edges)
	op.SetParam("weights", weights)
	op.CostHint = &qop.CostHint{TwoQ: 2 * len(g.Edges), OneQ: len(g.Edges), Depth: 3 * len(g.Edges)}
	return op, nil
}

// NewMixerRX builds one QAOA mixer layer: RX(2β) on every carrier.
func NewMixerRX(reg *qdt.DataType, beta float64) (*qop.Operator, error) {
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	op := newOp("mixer_rx", qop.MixerRX, reg.ID)
	op.SetParam("beta", beta)
	op.CostHint = &qop.CostHint{OneQ: reg.Width, Depth: 1}
	return op, nil
}

// BuildQAOA emits the full §5/Fig. 2 descriptor stack for Max-Cut:
// PREP_UNIFORM, then p alternating (ISING_COST_PHASE, MIXER_RX) layers,
// then a MEASUREMENT carrying the explicit result schema. gammas and
// betas must have equal length p ≥ 1.
func BuildQAOA(reg *qdt.DataType, g *graph.Graph, gammas, betas []float64) (qop.Sequence, error) {
	if len(gammas) != len(betas) || len(gammas) == 0 {
		return nil, fmt.Errorf("algolib: QAOA needs equal non-empty angle lists, got %d/%d", len(gammas), len(betas))
	}
	prep, err := NewPrepUniform(reg)
	if err != nil {
		return nil, err
	}
	seq := qop.Sequence{prep}
	for layer := range gammas {
		cost, err := NewIsingCostPhase(reg, g, gammas[layer])
		if err != nil {
			return nil, err
		}
		mixer, err := NewMixerRX(reg, betas[layer])
		if err != nil {
			return nil, err
		}
		seq = append(seq, cost, mixer)
	}
	seq = append(seq, NewMeasurement(reg))
	return seq, nil
}

// NewIsingProblem emits the §5/Fig. 3 anneal-path descriptor: a single
// ISING_PROBLEM declaring the energy E(s) = Σ h_i s_i + Σ J_ij s_i s_j
// over the register's logical spins.
func NewIsingProblem(reg *qdt.DataType, m *ising.Model) (*qop.Operator, error) {
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	if m.N != reg.Width {
		return nil, fmt.Errorf("algolib: model has %d spins, register width %d", m.N, reg.Width)
	}
	op := newOp("ising_problem", qop.IsingProblem, reg.ID)
	op.SetParam("h", toAnySlice(m.H))
	var couplings []any
	for c := range m.Couplings() {
		couplings = append(couplings, []any{float64(c.I), float64(c.J), c.V})
	}
	op.SetParam("couplings", couplings)
	op.SetParam("offset", m.Offset)
	op.CostHint = &qop.CostHint{Depth: 1, TwoQ: len(couplings)}
	attachDefaultResult(op, reg)
	return op, nil
}

// IsingModelFromOp reconstructs the Ising model from an ISING_PROBLEM
// descriptor (the anneal backend's lowering hook). Couplings on the same
// pair are summed in list order. It rejects a coupling index that is not an
// integer in [0, width), and a model whose energies could overflow: every
// energy is bounded by |offset| + Σ|h| + Σ|J|, summed in Energy's order,
// and that bound must be finite, or a sample's energy could be ±Inf, which
// no result document can carry.
func IsingModelFromOp(op *qop.Operator, width int) (*ising.Model, error) {
	if op.RepKind != qop.IsingProblem {
		return nil, fmt.Errorf("algolib: op %q is %s, want ISING_PROBLEM", op.Name, op.RepKind)
	}
	h, err := floatSliceParam(op, "h")
	if err != nil {
		return nil, err
	}
	if len(h) != width {
		return nil, fmt.Errorf("algolib: h has %d entries, register width %d", len(h), width)
	}
	offset, err := op.ParamFloatDefault("offset", 0)
	if err != nil {
		return nil, err
	}
	var terms []ising.Term
	// A coupling-free model serializes as JSON null after clone
	// round-trips; treat it as empty.
	if raw := op.Params["couplings"]; raw != nil {
		list, isList := raw.([]any)
		if !isList {
			return nil, fmt.Errorf("algolib: couplings param is %T", raw)
		}
		terms = make([]ising.Term, len(list))
		for idx, entry := range list {
			triple, isT := entry.([]any)
			if !isT || len(triple) != 3 {
				return nil, fmt.Errorf("algolib: coupling %d malformed", idx)
			}
			var vals [3]float64
			for k, e := range triple {
				f, isF := e.(float64)
				if !isF {
					return nil, fmt.Errorf("algolib: coupling %d element %d is %T", idx, k, e)
				}
				vals[k] = f
			}
			for _, f := range vals[:2] {
				if f != math.Trunc(f) {
					return nil, fmt.Errorf("algolib: coupling %d index %v is not an integer", idx, f)
				}
			}
			if vals[0] < 0 || vals[1] < 0 || vals[0] >= float64(width) || vals[1] >= float64(width) || vals[0] == vals[1] {
				return nil, fmt.Errorf("algolib: coupling %d indices (%v,%v) invalid for width %d", idx, vals[0], vals[1], width)
			}
			terms[idx] = ising.Term{I: int(vals[0]), J: int(vals[1]), V: vals[2]}
		}
	}
	m := ising.New(width, terms)
	copy(m.H, h)
	m.Offset = offset
	if field := overflowingField(m); field != "" {
		return nil, fmt.Errorf("algolib: %s: the energy bound |offset| + Σ|h| + Σ|J| is not finite", field)
	}
	return m, nil
}

// overflowingField names the first field, in Energy's summation order,
// at which the bound |offset| + Σ|h| + Σ|J| stops being finite, or returns
// "" for a model whose every energy is finite. Rounding is monotone, so
// each partial sum of Energy is no larger in magnitude than the same
// partial sum of the bound.
func overflowingField(m *ising.Model) string {
	finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
	bound := math.Abs(m.Offset)
	if !finite(bound) {
		return "offset"
	}
	for _, h := range m.H {
		bound += math.Abs(h)
	}
	if !finite(bound) {
		return "h"
	}
	for c := range m.Couplings() {
		bound += math.Abs(c.V)
	}
	if !finite(bound) {
		return "couplings"
	}
	return ""
}

// GraphFromCostPhase reconstructs the problem graph from an
// ISING_COST_PHASE descriptor.
func GraphFromCostPhase(op *qop.Operator, width int) (*graph.Graph, error) {
	if op.RepKind != qop.IsingCostPhase {
		return nil, fmt.Errorf("algolib: op %q is %s, want ISING_COST_PHASE", op.Name, op.RepKind)
	}
	rawEdges, ok := op.Params["edges"].([]any)
	if !ok {
		return nil, fmt.Errorf("algolib: op %q missing edges", op.Name)
	}
	weights, err := floatSliceParam(op, "weights")
	if err != nil {
		return nil, err
	}
	if len(weights) != len(rawEdges) {
		return nil, fmt.Errorf("algolib: %d edges but %d weights", len(rawEdges), len(weights))
	}
	g := graph.New(width)
	for idx, re := range rawEdges {
		pair, isP := re.([]any)
		if !isP || len(pair) != 2 {
			return nil, fmt.Errorf("algolib: edge %d malformed", idx)
		}
		u, okU := pair[0].(float64)
		v, okV := pair[1].(float64)
		if !okU || !okV {
			return nil, fmt.Errorf("algolib: edge %d endpoints not numeric", idx)
		}
		if err := g.AddEdge(int(u), int(v), weights[idx]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// NewIsingEvolution builds the time-evolution operator e^{-iHt} for an
// Ising Hamiltonian (the paper §4.2's "Ising evolution operator" example).
func NewIsingEvolution(reg *qdt.DataType, m *ising.Model, time float64) (*qop.Operator, error) {
	op, err := NewIsingProblem(reg, m)
	if err != nil {
		return nil, err
	}
	op.Name = "ising_evolution"
	op.RepKind = qop.IsingEvolution
	op.SetParam("time", time)
	op.Result = nil
	nj := m.NumCouplings()
	op.CostHint = &qop.CostHint{TwoQ: 2 * nj, OneQ: nj + m.N, Depth: 3*nj + 1}
	return op, nil
}

// NewTFIMEvolution builds the Trotterized time evolution of a transverse-
// field Ising model H = Σ J_ij Z_i Z_j + Σ h_i Z_i + g·Σ X_i: the
// non-commuting dynamics workload that makes the evolution template a real
// quantum-simulation entry rather than a diagonal phase. trotterSteps
// controls the first-order product-formula resolution.
func NewTFIMEvolution(reg *qdt.DataType, m *ising.Model, transverse, time float64, trotterSteps int) (*qop.Operator, error) {
	if trotterSteps < 1 {
		return nil, fmt.Errorf("algolib: trotter_steps %d < 1", trotterSteps)
	}
	op, err := NewIsingEvolution(reg, m, time)
	if err != nil {
		return nil, err
	}
	op.Name = "tfim_evolution"
	op.SetParam("transverse", transverse)
	op.SetParam("trotter_steps", trotterSteps)
	nj := m.NumCouplings()
	perStep := 2*nj + nj + 2*m.N
	op.CostHint = &qop.CostHint{
		TwoQ:  2 * nj * trotterSteps,
		OneQ:  (nj + m.N) * trotterSteps,
		Depth: perStep * trotterSteps,
	}
	return op, nil
}
