package anneal

import (
	"fmt"

	"repro/internal/ising"
	"repro/internal/rng"
)

// RandomSample draws num_reads uniformly random configurations — the
// floor any optimizer must beat.
func RandomSample(m *ising.Model, numReads int, seed uint64) (*Result, error) {
	if numReads < 1 {
		return nil, fmt.Errorf("anneal: num_reads %d < 1", numReads)
	}
	if m.N > 63 {
		return nil, fmt.Errorf("anneal: model size %d exceeds 63-spin mask limit", m.N)
	}
	r := rng.New(seed)
	agg := map[uint64]int{}
	for i := 0; i < numReads; i++ {
		agg[r.Uint64n(uint64(1)<<uint(m.N))]++
	}
	res := &Result{NumReads: numReads}
	for mask, occ := range agg {
		res.Samples = append(res.Samples, Sample{Mask: mask, Energy: m.EnergyBits(mask), Occurrences: occ})
	}
	sortSamples(res.Samples)
	return res, nil
}

// GreedyDescent runs num_reads steepest-descent walks from random starts:
// repeatedly flip the spin with the largest energy decrease until no flip
// helps. Finds local minima only — the classic baseline SA improves on
// for frustrated landscapes.
func GreedyDescent(m *ising.Model, numReads int, seed uint64) (*Result, error) {
	if numReads < 1 {
		return nil, fmt.Errorf("anneal: num_reads %d < 1", numReads)
	}
	master := rng.New(seed)
	agg := map[uint64]int{}
	for read := 0; read < numReads; read++ {
		r := master.Child()
		s := randomSpins(m.N, r)
		fields := localFields(m, s)
		for {
			bestI, bestDelta := -1, -1e-12
			for i := 0; i < m.N; i++ {
				delta := -2 * float64(s[i]) * fields[i]
				if delta < bestDelta {
					bestDelta = delta
					bestI = i
				}
			}
			if bestI < 0 {
				break
			}
			flip(m, s, fields, bestI)
		}
		agg[ising.BitsFromSpins(s)]++
	}
	return aggregate(m, agg, numReads), nil
}

// TabuSearch runs num_reads tabu walks: always take the best non-tabu
// flip (even uphill), remembering recently flipped spins for `tenure`
// moves, and returns the best configuration each walk visited.
func TabuSearch(m *ising.Model, numReads, steps int, seed uint64) (*Result, error) {
	if numReads < 1 {
		return nil, fmt.Errorf("anneal: num_reads %d < 1", numReads)
	}
	if steps <= 0 {
		steps = 50 * m.N
	}
	tenure := m.N / 4
	if tenure < 1 {
		tenure = 1
	}
	master := rng.New(seed)
	agg := map[uint64]int{}
	for read := 0; read < numReads; read++ {
		r := master.Child()
		s := randomSpins(m.N, r)
		fields := localFields(m, s)
		energy := m.Energy(s)
		bestEnergy := energy
		bestMask := ising.BitsFromSpins(s)
		tabuUntil := make([]int, m.N)
		for step := 0; step < steps; step++ {
			bestI := -1
			bestDelta := 0.0
			for i := 0; i < m.N; i++ {
				delta := -2 * float64(s[i]) * fields[i]
				// Aspiration: a tabu move is allowed if it beats the best.
				if step < tabuUntil[i] && energy+delta >= bestEnergy {
					continue
				}
				if bestI < 0 || delta < bestDelta {
					bestI = i
					bestDelta = delta
				}
			}
			if bestI < 0 {
				break
			}
			flip(m, s, fields, bestI)
			energy += bestDelta
			tabuUntil[bestI] = step + tenure
			if energy < bestEnergy {
				bestEnergy = energy
				bestMask = ising.BitsFromSpins(s)
			}
		}
		agg[bestMask]++
	}
	return aggregate(m, agg, numReads), nil
}

func randomSpins(n int, r *rng.Rand) []int8 {
	s := make([]int8, n)
	for i := range s {
		if r.Float64() < 0.5 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

func aggregate(m *ising.Model, agg map[uint64]int, numReads int) *Result {
	res := &Result{NumReads: numReads}
	for mask, occ := range agg {
		res.Samples = append(res.Samples, Sample{Mask: mask, Energy: m.EnergyBits(mask), Occurrences: occ})
	}
	sortSamples(res.Samples)
	return res
}
