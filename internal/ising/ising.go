// Package ising implements the Ising problem model consumed by the
// annealing backend and produced by the algorithmic libraries.
//
// The paper's anneal path (§5, Fig. 3) emits a single ISING_PROBLEM operator
// descriptor declaring the energy E(s) = Σ_i h_i s_i + Σ_{i<j} J_ij s_i s_j
// over spins s_i ∈ {−1,+1}. This package holds that model, the Max-Cut ↔
// Ising and number-partitioning reductions, and exact ground-state
// enumeration used to verify sampler output.
//
// A model's symmetric coupling matrix J is stored once, in compressed
// sparse rows: spin i's partners in ascending order and its couplings to
// them. The samplers walk those rows for O(degree) local-field updates, and
// Energy, the descriptor encoder and the circuit lowering walk the same
// table in (i, j) order, so every float sum over J is taken in one fixed
// order and an energy is the same bits on every run.
package ising

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"

	"repro/internal/graph"
)

// Model is an Ising problem: linear fields h and symmetric couplings J on
// n spins, plus a constant energy term.
type Model struct {
	N      int
	H      []float64
	Offset float64

	// The couplings in compressed sparse rows: spin i's partners are
	// nbr[off[i]:off[i+1]] in ascending order, and j[k] is its coupling
	// to nbr[k]. Every nonzero J_ij appears twice, in row i and in row j.
	// Fixed by New.
	off []int32
	nbr []int32
	j   []float64
}

// Term is one coupling J_ij between spins I and J (in either order).
type Term struct {
	I, J int
	V    float64
}

// New returns the model on n spins with zero fields and offset and the
// couplings the terms name. Terms on the same pair are summed in input
// order, and a pair whose sum is zero is dropped. It panics on an
// out-of-range or diagonal index: terms are built by library code, so
// misuse is a programming error, and decoders of outside input check
// indices first.
func New(n int, terms []Term) *Model {
	pairs := make([]Term, len(terms))
	for k, t := range terms {
		i, j := t.I, t.J
		if i == j {
			panic("ising: diagonal coupling")
		}
		if i < 0 || j < 0 || i >= n || j >= n {
			panic(fmt.Sprintf("ising: coupling (%d,%d) out of range [0,%d)", i, j, n))
		}
		pairs[k] = Term{I: min(i, j), J: max(i, j), V: t.V}
	}
	slices.SortStableFunc(pairs, func(a, b Term) int {
		return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
	})
	upper := pairs[:0]
	for k := 0; k < len(pairs); {
		t := Term{I: pairs[k].I, J: pairs[k].J}
		for ; k < len(pairs) && pairs[k].I == t.I && pairs[k].J == t.J; k++ {
			t.V += pairs[k].V
		}
		if t.V != 0 {
			upper = append(upper, t)
		}
	}

	m := &Model{N: n, H: make([]float64, n), off: make([]int32, n+1)}
	for _, t := range upper {
		m.off[t.I+1]++
		m.off[t.J+1]++
	}
	for i := 0; i < n; i++ {
		m.off[i+1] += m.off[i]
	}
	m.nbr = make([]int32, 2*len(upper))
	m.j = make([]float64, 2*len(upper))
	// Pairs arrive sorted by (I, J), so every row fills in ascending
	// order: a row's partners below it come from pairs that sort before
	// the ones naming its partners above it.
	next := slices.Clone(m.off[:n])
	for _, t := range upper {
		m.nbr[next[t.I]], m.j[next[t.I]] = int32(t.J), t.V
		next[t.I]++
		m.nbr[next[t.J]], m.j[next[t.J]] = int32(t.I), t.V
		next[t.J]++
	}
	return m
}

// Row returns spin i's partners in ascending order and its couplings to
// them, side by side. The slices are the model's own and must not be
// written.
func (m *Model) Row(i int) (nbr []int32, j []float64) {
	lo, hi := m.off[i], m.off[i+1]
	return m.nbr[lo:hi:hi], m.j[lo:hi:hi]
}

// Couplings yields every nonzero coupling once, with I < J, in (I, J)
// order.
func (m *Model) Couplings() iter.Seq[Term] {
	return func(yield func(Term) bool) {
		for i := 0; i < m.N; i++ {
			nbr, js := m.Row(i)
			for k, p := range nbr {
				if int(p) > i && !yield(Term{I: i, J: int(p), V: js[k]}) {
					return
				}
			}
		}
	}
}

// NumCouplings returns the number of nonzero couplings.
func (m *Model) NumCouplings() int { return len(m.j) / 2 }

// Energy evaluates E(s) for spins s_i ∈ {−1,+1}, summing the offset, the
// fields in spin order and the couplings in (i, j) order. It panics if
// len(s) != N or any entry is not ±1.
func (m *Model) Energy(s []int8) float64 {
	if len(s) != m.N {
		panic(fmt.Sprintf("ising: spin vector length %d != %d", len(s), m.N))
	}
	e := m.Offset
	for i, h := range m.H {
		if s[i] != 1 && s[i] != -1 {
			panic(fmt.Sprintf("ising: spin %d has value %d, want ±1", i, s[i]))
		}
		e += h * float64(s[i])
	}
	for c := range m.Couplings() {
		e += c.V * float64(s[c.I]) * float64(s[c.J])
	}
	return e
}

// EnergyBits evaluates E at the spin configuration encoded by mask where
// bit i set means s_i = +1 (matching AS_BOOL decoding: 1 ↦ +1, 0 ↦ −1).
func (m *Model) EnergyBits(mask uint64) float64 {
	s := SpinsFromBits(mask, m.N)
	return m.Energy(s)
}

// SpinsFromBits expands a bitmask into a ±1 spin vector (bit set → +1).
func SpinsFromBits(mask uint64, n int) []int8 {
	s := make([]int8, n)
	for i := 0; i < n; i++ {
		if (mask>>uint(i))&1 == 1 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// BitsFromSpins is the inverse of SpinsFromBits.
func BitsFromSpins(s []int8) uint64 {
	var mask uint64
	for i, v := range s {
		if v == 1 {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// GroundStates enumerates all 2^n configurations and returns the minimum
// energy together with every bitmask attaining it. Limited to n <= 30.
type GroundStates struct {
	Energy float64
	Masks  []uint64
}

// BruteForce returns the exact ground states of the model.
func (m *Model) BruteForce() GroundStates {
	if m.N > 30 {
		panic("ising: brute force limited to 30 spins")
	}
	best := math.Inf(1)
	var masks []uint64
	total := uint64(1) << uint(m.N)
	for mask := uint64(0); mask < total; mask++ {
		e := m.EnergyBits(mask)
		switch {
		case e < best-1e-12:
			best = e
			masks = masks[:0]
			masks = append(masks, mask)
		case math.Abs(e-best) <= 1e-12:
			masks = append(masks, mask)
		}
	}
	return GroundStates{Energy: best, Masks: masks}
}

// FromMaxCut builds the standard Max-Cut Ising model for g: h = 0 and
// J_ij = w_ij on every edge, parallel edges summed. Minimizing
// E(s) = Σ w_ij s_i s_j makes anti-aligned spins (cut edges) energetically
// favourable; the cut value of a configuration is recovered by
// CutFromEnergy.
//
// This is exactly the paper's §5 anneal-path formulation: "h is the zero
// vector and J is a symmetric 4×4 matrix with unit couplings on edges
// (0,1), (1,2), (2,3), (3,0)".
func FromMaxCut(g *graph.Graph) *Model {
	terms := make([]Term, len(g.Edges))
	for k, e := range g.Edges {
		terms[k] = Term{I: e.U, J: e.V, V: e.Weight}
	}
	return New(g.N, terms)
}

// CutFromEnergy converts an Ising energy of a FromMaxCut model back to the
// cut value: E = W − 2·cut where W is the graph's total weight, so
// cut = (W − E)/2.
func CutFromEnergy(g *graph.Graph, energy float64) float64 {
	return (g.TotalWeight() - energy) / 2
}

// MaxAbsCoupling returns the largest |J| or |h| (used to choose embedding
// chain strengths and the annealer's default temperatures).
func (m *Model) MaxAbsCoupling() float64 {
	max := 0.0
	for _, v := range m.j {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	for _, h := range m.H {
		if a := math.Abs(h); a > max {
			max = a
		}
	}
	return max
}
