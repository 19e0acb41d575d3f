package main

import (
	"fmt"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/runtime"
	"repro/internal/transpile"
)

// runE12 sweeps the transpiler's optimization levels over the QFT(10)
// Listing-4 target — the design-choice ablation for the pass pipeline
// (level 3 adds single-qubit ZYZ resynthesis).
func runE12(uint64) error {
	circ, err := algolib.QFTCircuit(10, 0, true, false)
	if err != nil {
		return err
	}
	var linear [][2]int
	for i := 0; i < 9; i++ {
		linear = append(linear, [2]int{i, i + 1})
	}
	fmt.Println("optimization_level   size    cx    depth   swaps")
	for lvl := 0; lvl <= 3; lvl++ {
		res, err := transpile.Transpile(circ.Copy(), transpile.Options{
			BasisGates:        []string{"sx", "rz", "cx"},
			CouplingMap:       linear,
			OptimizationLevel: lvl,
		})
		if err != nil {
			return err
		}
		fmt.Printf("        %d           %5d  %4d   %5d   %5d\n",
			lvl, res.Stats.SizeAfter, res.Stats.TwoQAfter, res.Stats.DepthAfter, res.Stats.SwapsInserted)
	}
	fmt.Println("shape: higher levels shrink the circuit; level 2's commutation-aware pass")
	fmt.Println("and level 3's ZYZ resynthesis act after routing's swap insertion")

	// Second workload: a single-qubit-dense circuit (variational-ansatz
	// shape) where level 3's ZYZ resynthesis dominates.
	dense := circuit.New(4, 0)
	for layer := 0; layer < 6; layer++ {
		for q := 0; q < 4; q++ {
			dense.H(q)
			dense.T(q)
			dense.RZ(0.3+float64(layer)*0.1, q)
			dense.SXGate(q)
		}
		dense.CX(0, 1)
		dense.CX(2, 3)
	}
	fmt.Println("\ndense 1q-rotation ansatz (4 qubits, 6 layers):")
	fmt.Println("optimization_level   size    depth")
	for lvl := 0; lvl <= 3; lvl++ {
		res, err := transpile.Transpile(dense.Copy(), transpile.Options{
			BasisGates:        []string{"sx", "rz", "cx"},
			OptimizationLevel: lvl,
		})
		if err != nil {
			return err
		}
		fmt.Printf("        %d           %5d   %5d\n", lvl, res.Stats.SizeAfter, res.Stats.DepthAfter)
	}
	return nil
}

// runE13 sweeps stochastic-Pauli noise through the execution context on a
// fixed Grover intent — policy-side noise, untouched operators.
func runE13(seed uint64) error {
	reg := qdt.New("search", "x", 4, qdt.IntRegister, qdt.AsInt)
	seq, err := algolib.BuildGrover(reg, []uint64{11}, 0)
	if err != nil {
		return err
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, nil)
	if err != nil {
		return err
	}
	fp, err := b.Fingerprint()
	if err != nil {
		return err
	}
	fmt.Println("per-gate error p    P(marked)   (Grover |11⟩ of 16, optimal rounds)")
	for _, p := range []float64{0, 0.002, 0.01, 0.05} {
		ctx := ctxdesc.NewGate("gate.statevector", 2048, seed)
		if p > 0 {
			ctx.Exec.Options = map[string]any{
				"noise": map[string]any{"prob_1q": p, "prob_2q": p, "readout_flip": p / 2},
			}
		}
		res, err := runtime.Submit(b.WithContext(ctx), runtime.Options{})
		if err != nil {
			return err
		}
		hit := 0
		for _, e := range res.Entries {
			if e.Index == 11 {
				hit = e.Count
			}
		}
		fmt.Printf("     %.3f           %.3f\n", p, float64(hit)/float64(res.Samples))
		got, _ := b.WithContext(ctx).Fingerprint()
		if got != fp {
			return fmt.Errorf("intent fingerprint changed under noise context")
		}
	}
	fmt.Println("shape: success decays smoothly with noise; the intent fingerprint never changes —")
	fmt.Println("this is the degradation a QEC context (E7) exists to buy back")
	return nil
}
