// Quantum dynamics on the middle layer: Trotterized time evolution of a
// transverse-field Ising chain (H = J·ΣZᵢZᵢ₊₁ + g·ΣXᵢ) expressed as one
// ISING_EVOLUTION descriptor per time point — the quantum-simulation
// workload behind the paper's §4.2 "Ising evolution operator" example.
// The program prints the magnetization ⟨Z⟩ collapsing and reviving as the
// transverse field rotates the chain.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/algolib"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/sim"
)

func main() {
	const (
		n     = 6   // chain length
		j     = 1.0 // ZZ coupling
		g     = 1.0 // transverse field (critical point of the TFIM chain)
		steps = 64  // Trotter resolution per run
	)
	reg := qdt.New("chain", "spins", n, qdt.IsingSpin, qdt.AsSpin)
	var chain []ising.Term
	for i := 0; i+1 < n; i++ {
		chain = append(chain, ising.Term{I: i, J: i + 1, V: j})
	}
	model := ising.New(n, chain)

	fmt.Printf("TFIM chain n=%d, J=%.1f, g=%.1f: magnetization ⟨Z⟩(t) from |0…0⟩\n\n", n, j, g)
	fmt.Println("  t     ⟨Z⟩      ")
	for _, time := range []float64{0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0} {
		var seq qop.Sequence
		if time > 0 {
			op, err := algolib.NewTFIMEvolution(reg, model, g, time, steps)
			if err != nil {
				log.Fatal(err)
			}
			seq = qop.Sequence{op}
		} else {
			prep, err := algolib.NewPrepBasis(reg, 0)
			if err != nil {
				log.Fatal(err)
			}
			seq = qop.Sequence{prep}
		}
		low, err := algolib.Lower(seq, algolib.Registers{"chain": reg})
		if err != nil {
			log.Fatal(err)
		}
		st, err := sim.Evolve(low.Circuit)
		if err != nil {
			log.Fatal(err)
		}
		mag := st.ExpectationDiagonal(func(k uint64) float64 {
			total := 0.0
			for q := 0; q < n; q++ {
				if k>>uint(q)&1 == 1 {
					total--
				} else {
					total++
				}
			}
			return total / n
		})
		bar := int((mag + 1) / 2 * 40)
		fmt.Printf("%5.2f  %+.4f  |%s\n", time, mag, strings.Repeat("█", bar))
	}
	fmt.Println("\nthe cost hint scales with Trotter resolution:")
	for _, s := range []int{8, 64, 512} {
		op, err := algolib.NewTFIMEvolution(reg, model, g, 1.0, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  steps=%-4d  twoq=%-5d depth=%d\n", s, op.CostHint.TwoQ, op.CostHint.Depth)
	}
}
