package algolib

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/sim"
)

func evolveTFIM(t *testing.T, reg *qdt.DataType, m *ising.Model, g, time float64, steps int) *sim.State {
	t.Helper()
	op, err := NewTFIMEvolution(reg, m, g, time, steps)
	if err != nil {
		t.Fatal(err)
	}
	low, err := Lower(qop.Sequence{op}, Registers{reg.ID: reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTFIMSingleQubitAnalytic(t *testing.T) {
	// H = g·X on one qubit: |0⟩ evolves to P(1) = sin²(g·t), exactly
	// (no Trotter error: H commutes with itself).
	reg := intReg("spin", 1)
	m := ising.New(1, nil)
	g, time := 0.7, 1.3
	st := evolveTFIM(t, reg, m, g, time, 1)
	want := math.Pow(math.Sin(g*time), 2)
	if math.Abs(st.Probability(1)-want) > 1e-9 {
		t.Errorf("P(1) = %v, analytic %v", st.Probability(1), want)
	}
}

func TestTFIMDiagonalLimit(t *testing.T) {
	// g = 0 reduces to the exact diagonal evolution: basis probabilities
	// are untouched regardless of the step count requested.
	reg := intReg("spins", 3)
	m := ising.New(3, []ising.Term{{I: 0, J: 1, V: 1}, {I: 1, J: 2, V: -0.5}})
	m.H[0] = 0.3
	pb, err := NewPrepBasis(reg, 5)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewTFIMEvolution(reg, m, 0, 2.1, 16)
	if err != nil {
		t.Fatal(err)
	}
	low, err := Lower(qop.Sequence{pb, op}, Registers{"spins": reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Probability(5)-1) > 1e-9 {
		t.Errorf("diagonal limit moved probability: P(5) = %v", st.Probability(5))
	}
}

// stateDistance returns 1 − |⟨a|b⟩| (0 for equal states up to phase).
func stateDistance(a, b *sim.State) float64 {
	var overlap complex128
	for k := 0; k < a.Dim(); k++ {
		overlap += cmplx.Conj(a.Amplitude(uint64(k))) * b.Amplitude(uint64(k))
	}
	return 1 - cmplx.Abs(overlap)
}

func TestTFIMTrotterConvergence(t *testing.T) {
	// For non-commuting H = Z₀Z₁ + g(X₀+X₁), coarser Trotterizations
	// must be farther from a fine-step reference, with roughly first-
	// order improvement.
	reg := intReg("pair", 2)
	m := ising.New(2, []ising.Term{{I: 0, J: 1, V: 1}})
	g, time := 0.8, 1.0
	ref := evolveTFIM(t, reg, m, g, time, 2048)
	d4 := stateDistance(ref, evolveTFIM(t, reg, m, g, time, 4))
	d16 := stateDistance(ref, evolveTFIM(t, reg, m, g, time, 16))
	d64 := stateDistance(ref, evolveTFIM(t, reg, m, g, time, 64))
	if !(d4 > d16 && d16 > d64) {
		t.Errorf("Trotter error not decreasing: %v, %v, %v", d4, d16, d64)
	}
	if d64 > 1e-3 {
		t.Errorf("64-step Trotter error %v too large", d64)
	}
}

func TestTFIMEnergyConservation(t *testing.T) {
	// ⟨H⟩ is conserved under e^{-iHt}. Start from a non-eigenstate
	// (basis |01⟩), evolve finely, and compare ⟨H⟩ before and after,
	// computed directly from the statevector.
	reg := intReg("pair", 2)
	m := ising.New(2, []ising.Term{{I: 0, J: 1, V: 1}})
	g := 0.6

	energy := func(st *sim.State) float64 {
		// ⟨H⟩ = Σ_k conj(ψ_k)·(Hψ)_k with H = Z₀Z₁ + g(X₀+X₁).
		total := complex(0, 0)
		for k := 0; k < st.Dim(); k++ {
			amp := st.Amplitude(uint64(k))
			if amp == 0 {
				continue
			}
			// Diagonal ZZ part.
			z0 := 1.0
			if k&1 == 1 {
				z0 = -1
			}
			z1 := 1.0
			if k&2 == 2 {
				z1 = -1
			}
			h := complex(z0*z1, 0) * amp
			// Off-diagonal X parts: X₀ couples k ↔ k^1, X₁ couples k ↔ k^2.
			h += complex(g, 0) * st.Amplitude(uint64(k^1))
			h += complex(g, 0) * st.Amplitude(uint64(k^2))
			total += cmplx.Conj(amp) * h
		}
		return real(total)
	}

	pb, err := NewPrepBasis(reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Lower(qop.Sequence{pb}, Registers{"pair": reg})
	if err != nil {
		t.Fatal(err)
	}
	before, err := sim.Evolve(prep.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewTFIMEvolution(reg, m, g, 2.0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Lower(qop.Sequence{pb, op}, Registers{"pair": reg})
	if err != nil {
		t.Fatal(err)
	}
	after, err := sim.Evolve(full.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	e0, e1 := energy(before), energy(after)
	if math.Abs(e0-e1) > 1e-3 {
		t.Errorf("energy not conserved: %v -> %v", e0, e1)
	}
	// And the state genuinely moved (non-trivial dynamics).
	if stateDistance(before, after) < 1e-3 {
		t.Error("evolution did nothing")
	}
}

func TestTFIMValidation(t *testing.T) {
	reg := intReg("r", 2)
	m := ising.New(2, nil)
	if _, err := NewTFIMEvolution(reg, m, 1, 1, 0); err == nil {
		t.Error("zero trotter steps accepted")
	}
}
