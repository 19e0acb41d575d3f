package ising

import (
	"fmt"
	"math"
)

// This file provides the standard NP-hard → Ising reductions the
// annealing path consumes beyond Max-Cut (paper §1: annealers are "an
// essential and viable approach for solving optimization problems").
// Each reduction is exact: the ground states of the produced model are
// precisely the optimal solutions of the source problem, verified against
// brute force in tests.

// NumberPartitioning builds the Ising model whose ground states are the
// balanced partitions of the weights: E(s) = (Σ w_i s_i)² expanded into
// couplings J_ij = 2·w_i·w_j and offset Σ w_i². The ground energy is the
// squared difference of the best achievable partition.
func NumberPartitioning(weights []float64) (*Model, error) {
	if len(weights) < 2 {
		return nil, fmt.Errorf("ising: partitioning needs at least 2 weights")
	}
	var terms []Term
	offset := 0.0
	for i, w := range weights {
		offset += w * w
		for j := i + 1; j < len(weights); j++ {
			terms = append(terms, Term{I: i, J: j, V: 2 * w * weights[j]})
		}
	}
	m := New(len(weights), terms)
	m.Offset = offset
	return m, nil
}

// PartitionDifference recovers |Σ_{S} w − Σ_{S̄} w| from a configuration's
// energy: E = (difference)².
func PartitionDifference(energy float64) float64 {
	if energy < 0 {
		return 0
	}
	return math.Sqrt(energy)
}
