package algolib

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/qdt"
	"repro/internal/qop"
)

// NewQFT builds the Listing-3 operator: a QFT template over a register,
// with approximation degree (number of smallest-angle controlled-phase
// layers dropped), optional final wire-reversal swaps, and direction.
// The descriptor carries the device-independent cost hint the paper shows
// (≈45 two-qubit gates and depth near 100 for width 10).
func NewQFT(reg *qdt.DataType, approxDegree int, doSwaps, inverse bool) (*qop.Operator, error) {
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	if approxDegree < 0 || approxDegree >= reg.Width {
		return nil, fmt.Errorf("algolib: approx_degree %d out of [0,%d)", approxDegree, reg.Width)
	}
	op := newOp("QFT", qop.QFTTemplate, reg.ID)
	op.SetParam("approx_degree", approxDegree)
	op.SetParam("do_swaps", doSwaps)
	op.SetParam("inverse", inverse)
	hint := EstimateQFTCost(reg.Width, approxDegree, doSwaps)
	op.CostHint = &hint
	attachDefaultResult(op, reg)
	return op, nil
}

// EstimateQFTCost is the device-independent cost estimator for the QFT
// template. Two-qubit count is the controlled-phase count n(n−1)/2 minus
// the approximation-trimmed rotations (angles below π/2^approx are
// dropped); depth is estimated at n² gate layers, matching the Listing-3
// hint ("twoq": 45, "depth": 100 for n = 10, exact).
func EstimateQFTCost(n, approxDegree int, doSwaps bool) qop.CostHint {
	twoq := 0
	for i := 0; i < n; i++ {
		layers := i // controlled phases onto qubit i from lower qubits
		trimmed := layers - (n - 1 - approxDegree)
		if trimmed < 0 {
			trimmed = 0
		}
		kept := layers
		if approxDegree > 0 {
			kept = 0
			for j := 0; j < i; j++ {
				// CP(π/2^{i-j}) is kept when i-j <= n-1-approxDegree.
				if i-j <= n-1-approxDegree {
					kept++
				}
			}
		}
		twoq += kept
	}
	// Wire-reversal swaps are not counted: on most targets they realize
	// as free classical relabelling, and the Listing-3 hint ("twoq": 45
	// for n = 10 with do_swaps = true) counts only the controlled phases.
	_ = doSwaps
	return qop.CostHint{
		TwoQ:  twoq,
		OneQ:  n,
		Depth: n * n,
	}
}

// QFTCircuit realizes the QFT template over qubit indices [0, n) of a
// circuit (qubit i = register bit i, LSB_0). With doSwaps, the output
// matches the textbook QFT |x⟩ → (1/√N)Σ_k e^{2πi·xk/N}|k⟩ in the same
// bit ordering as the input.
func QFTCircuit(n, approxDegree int, doSwaps, inverse bool) (*circuit.Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("algolib: QFT width %d < 1", n)
	}
	if approxDegree < 0 || approxDegree >= n {
		return nil, fmt.Errorf("algolib: approx_degree %d out of [0,%d)", approxDegree, n)
	}
	c := circuit.New(n, 0)
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			// CP(π/2^{i-j}) between qubit j (control) and i (target).
			if approxDegree > 0 && i-j > n-1-approxDegree {
				continue
			}
			c.CPhase(math.Pi/math.Pow(2, float64(i-j)), j, i)
		}
	}
	if doSwaps {
		for i := 0; i < n/2; i++ {
			c.Swap(i, n-1-i)
		}
	}
	if inverse {
		inv, err := c.Inverse()
		if err != nil {
			return nil, err
		}
		return inv, nil
	}
	return c, nil
}

// NewQPE builds a quantum phase estimation template: the counting
// register reads out an estimate of the oracle phase. The synthetic
// oracle U = P(2π·phase) acts on a one-qubit eigenstate register prepared
// in |1⟩ — the closest executable equivalent of the paper's "QPE
// scaffolding" library entry.
func NewQPE(counting *qdt.DataType, eigen *qdt.DataType, phase float64) (*qop.Operator, error) {
	if err := counting.Validate(); err != nil {
		return nil, err
	}
	if err := eigen.Validate(); err != nil {
		return nil, err
	}
	if eigen.Width != 1 {
		return nil, fmt.Errorf("algolib: QPE eigenstate register must have width 1, got %d", eigen.Width)
	}
	if phase < 0 || phase >= 1 {
		return nil, fmt.Errorf("algolib: QPE phase %v out of [0,1)", phase)
	}
	op := newOp("QPE", qop.QPETemplate, counting.ID)
	op.SetParam("phase", phase)
	op.SetParam("eigen_qdt", eigen.ID)
	n := counting.Width
	hint := EstimateQFTCost(n, 0, true)
	hint.TwoQ += n // controlled-oracle applications
	op.CostHint = &hint
	attachDefaultResult(op, counting)
	return op, nil
}
