package ising

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNumberPartitioningPerfect(t *testing.T) {
	// {3, 1, 1, 2, 2, 1}: total 10, perfectly balanced 5/5 exists.
	m, err := NumberPartitioning([]float64{3, 1, 1, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	gs := m.BruteForce()
	if math.Abs(gs.Energy) > 1e-9 {
		t.Errorf("ground energy %v, want 0 (perfect partition)", gs.Energy)
	}
	if PartitionDifference(gs.Energy) != 0 {
		t.Errorf("difference %v", PartitionDifference(gs.Energy))
	}
	// Each ground mask partitions into equal halves.
	weights := []float64{3, 1, 1, 2, 2, 1}
	for _, mask := range gs.Masks {
		sum := 0.0
		for i, w := range weights {
			if mask>>uint(i)&1 == 1 {
				sum += w
			} else {
				sum -= w
			}
		}
		if math.Abs(sum) > 1e-9 {
			t.Errorf("ground mask %b has imbalance %v", mask, sum)
		}
	}
}

func TestNumberPartitioningOdd(t *testing.T) {
	// {5, 3, 1}: best split difference is 1 → ground energy 1.
	m, err := NumberPartitioning([]float64{5, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	gs := m.BruteForce()
	if math.Abs(gs.Energy-1) > 1e-9 {
		t.Errorf("ground energy %v, want 1", gs.Energy)
	}
	if d := PartitionDifference(gs.Energy); math.Abs(d-1) > 1e-9 {
		t.Errorf("difference %v, want 1", d)
	}
}

func TestNumberPartitioningEnergyIsSquaredImbalance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(7)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(1 + r.Intn(9))
		}
		m, err := NumberPartitioning(weights)
		if err != nil {
			return false
		}
		for mask := uint64(0); mask < uint64(1)<<uint(n); mask++ {
			sum := 0.0
			for i, w := range weights {
				if mask>>uint(i)&1 == 1 {
					sum += w
				} else {
					sum -= w
				}
			}
			if math.Abs(m.EnergyBits(mask)-sum*sum) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNumberPartitioningValidation(t *testing.T) {
	if _, err := NumberPartitioning([]float64{1}); err == nil {
		t.Error("single weight accepted")
	}
}
