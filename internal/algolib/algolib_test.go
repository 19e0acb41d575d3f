package algolib

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/sim"
)

func phaseReg(t *testing.T, width int) *qdt.DataType {
	t.Helper()
	return qdt.NewPhaseRegister("reg_phase", "phase", width)
}

func intReg(id string, width int) *qdt.DataType {
	return qdt.New(id, id, width, qdt.IntRegister, qdt.AsInt)
}

func TestNewQFTMatchesListing3(t *testing.T) {
	op, err := NewQFT(phaseReg(t, 10), 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if op.RepKind != qop.QFTTemplate || op.DomainQDT != "reg_phase" || op.CodomainQDT != "reg_phase" {
		t.Errorf("descriptor shape wrong: %+v", op)
	}
	// Listing 3: cost_hint twoq 45, depth "near 100".
	if op.CostHint.TwoQ != 45 {
		t.Errorf("twoq hint = %d, want 45", op.CostHint.TwoQ)
	}
	if op.CostHint.Depth != 100 {
		t.Errorf("depth hint = %d, want 100", op.CostHint.Depth)
	}
	if op.Result == nil || op.Result.Datatype != "AS_PHASE" || len(op.Result.ClbitOrder) != 10 {
		t.Errorf("result schema wrong: %+v", op.Result)
	}
	if _, err := NewQFT(phaseReg(t, 4), 4, true, false); err == nil {
		t.Error("approx_degree = width accepted")
	}
}

func TestQFTCircuitMatchesDFTMatrix(t *testing.T) {
	// QFT with swaps on |x⟩ must produce amplitudes e^{2πi·xk/N}/√N.
	const n = 3
	N := 1 << n
	for x := 0; x < N; x++ {
		prep := make(qop.Sequence, 0)
		reg := intReg("r", n)
		pb, err := NewPrepBasis(reg, uint64(x))
		if err != nil {
			t.Fatal(err)
		}
		qft, err := NewQFT(reg, 0, true, false)
		if err != nil {
			t.Fatal(err)
		}
		prep = append(prep, pb, qft)
		low, err := Lower(prep, Registers{"r": reg})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Evolve(low.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < N; k++ {
			want := cmplx.Exp(complex(0, 2*math.Pi*float64(x*k)/float64(N))) / complex(math.Sqrt(float64(N)), 0)
			got := st.Amplitude(uint64(k))
			if cmplx.Abs(got-want) > 1e-9 {
				t.Fatalf("QFT|%d⟩ amplitude at %d = %v, want %v", x, k, got, want)
			}
		}
	}
}

func TestQFTInverseIsIdentity(t *testing.T) {
	reg := intReg("r", 4)
	fwd, err := NewQFT(reg, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := fwd.Invert()
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := NewPrepBasis(reg, 11)
	low, err := Lower(qop.Sequence{pb, fwd, inv}, Registers{"r": reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Probability(11)-1) > 1e-9 {
		t.Errorf("QFT·QFT⁻¹|11⟩ gave P(11) = %v", st.Probability(11))
	}
}

func TestQFTApproximationReducesGates(t *testing.T) {
	exact, _ := QFTCircuit(8, 0, false, false)
	approx, _ := QFTCircuit(8, 3, false, false)
	if approx.TwoQubitCount() >= exact.TwoQubitCount() {
		t.Errorf("approximation did not reduce gates: %d vs %d",
			approx.TwoQubitCount(), exact.TwoQubitCount())
	}
	// Estimator agrees with the realized circuit.
	est := EstimateQFTCost(8, 3, false)
	if est.TwoQ != approx.TwoQubitCount() {
		t.Errorf("estimator %d != realized %d", est.TwoQ, approx.TwoQubitCount())
	}
}

func TestEstimatorMatchesRealizedQFT(t *testing.T) {
	for n := 2; n <= 10; n++ {
		est := EstimateQFTCost(n, 0, false)
		c, err := QFTCircuit(n, 0, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if est.TwoQ != c.TwoQubitCount() {
			t.Errorf("n=%d: estimated twoq %d, realized %d", n, est.TwoQ, c.TwoQubitCount())
		}
	}
}

func TestQPEEstimatesPhase(t *testing.T) {
	counting := intReg("count", 4)
	eigen := intReg("eig", 1)
	for _, phase := range []float64{0.25, 0.5, 0.8125} { // exact 4-bit fractions
		op, err := NewQPE(counting, eigen, phase)
		if err != nil {
			t.Fatal(err)
		}
		meas := NewMeasurement(counting)
		low, err := Lower(qop.Sequence{op, meas}, Registers{"count": counting, "eig": eigen})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(low.Circuit, sim.Options{Shots: 200, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		wantK := uint64(phase * 16)
		if res.Counts[wantK] != 200 {
			t.Errorf("QPE(φ=%v): counts %v, want all at %d", phase, res.Counts, wantK)
		}
	}
}

func TestQPEValidation(t *testing.T) {
	counting := intReg("c", 3)
	if _, err := NewQPE(counting, intReg("e", 2), 0.5); err == nil {
		t.Error("wide eigen register accepted")
	}
	if _, err := NewQPE(counting, intReg("e", 1), 1.5); err == nil {
		t.Error("out-of-range phase accepted")
	}
}

func TestDraperAdder(t *testing.T) {
	reg := intReg("r", 4)
	cases := []struct{ x, c, want uint64 }{
		{5, 7, 12}, {0, 3, 3}, {15, 1, 0}, {9, 9, 2}, {4, 0, 4},
	}
	for _, tc := range cases {
		pb, _ := NewPrepBasis(reg, tc.x)
		add, err := NewAdder(reg, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		meas := NewMeasurement(reg)
		low, err := Lower(qop.Sequence{pb, add, meas}, Registers{"r": reg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(low.Circuit, sim.Options{Shots: 50, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[tc.want] != 50 {
			t.Errorf("%d + %d: counts %v, want all at %d", tc.x, tc.c, res.Counts, tc.want)
		}
	}
}

func TestModAdd(t *testing.T) {
	reg := intReg("r", 4)
	op, err := NewModAdd(reg, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ x, want uint64 }{{0, 5}, {8, 0}, {12, 4}, {14, 14}} { // x ≥ M is identity
		pb, _ := NewPrepBasis(reg, tc.x)
		low, err := Lower(qop.Sequence{pb, op, NewMeasurement(reg)}, Registers{"r": reg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(low.Circuit, sim.Options{Shots: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[tc.want] != 10 {
			t.Errorf("modadd(%d): %v, want %d", tc.x, res.Counts, tc.want)
		}
	}
}

func TestModMul(t *testing.T) {
	reg := intReg("r", 4)
	op, err := NewModMul(reg, 7, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ x, want uint64 }{{1, 7}, {2, 14}, {4, 13}, {0, 0}} {
		pb, _ := NewPrepBasis(reg, tc.x)
		low, err := Lower(qop.Sequence{pb, op, NewMeasurement(reg)}, Registers{"r": reg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(low.Circuit, sim.Options{Shots: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[tc.want] != 10 {
			t.Errorf("modmul(%d): %v, want %d", tc.x, res.Counts, tc.want)
		}
	}
	if _, err := NewModMul(reg, 5, 15); err == nil {
		t.Error("non-coprime multiplier accepted")
	}
}

func TestModExpShorStyle(t *testing.T) {
	// 7^e mod 15 on |e⟩|1⟩: e=0→1, 1→7, 2→4, 3→13 (period 4).
	expReg := intReg("e", 2)
	tgtReg := intReg("y", 4)
	op, err := NewModExp(expReg, tgtReg, 7, 15)
	if err != nil {
		t.Fatal(err)
	}
	regs := Registers{"e": expReg, "y": tgtReg}
	want := []uint64{1, 7, 4, 13}
	for e := uint64(0); e < 4; e++ {
		pbE, _ := NewPrepBasis(expReg, e)
		pbY, _ := NewPrepBasis(tgtReg, 1)
		low, err := Lower(qop.Sequence{pbE, pbY, op, NewMeasurement(tgtReg)}, regs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(low.Circuit, sim.Options{Shots: 10, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts[want[e]] != 10 {
			t.Errorf("7^%d mod 15: %v, want %d", e, res.Counts, want[e])
		}
	}
}

func TestCompare(t *testing.T) {
	reg := intReg("x", 3)
	flag := qdt.New("f", "f", 1, qdt.BoolRegister, qdt.AsBool)
	op, err := NewCompare(reg, flag, 5)
	if err != nil {
		t.Fatal(err)
	}
	regs := Registers{"x": reg, "f": flag}
	for x := uint64(0); x < 8; x++ {
		pb, _ := NewPrepBasis(reg, x)
		low, err := Lower(qop.Sequence{pb, op, NewMeasurement(flag)}, regs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(low.Circuit, sim.Options{Shots: 5, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if x < 5 {
			want = 1
		}
		if res.Counts[want] != 5 {
			t.Errorf("compare(%d < 5): %v, want flag %d", x, res.Counts, want)
		}
	}
}

func TestSwapTestOverlap(t *testing.T) {
	anc := qdt.New("anc", "anc", 1, qdt.BoolRegister, qdt.AsBool)
	a := intReg("a", 1)
	b := intReg("b", 1)
	st, err := NewSwapTest(anc, a, b)
	if err != nil {
		t.Fatal(err)
	}
	regs := Registers{"anc": anc, "a": a, "b": b}
	// Identical states |0⟩,|0⟩: P(anc=1) = 0.
	low, err := Lower(qop.Sequence{st, NewMeasurement(anc)}, regs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(low.Circuit, sim.Options{Shots: 1000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[1] != 0 {
		t.Errorf("identical states gave anc=1 counts: %v", res.Counts)
	}
	// Orthogonal |0⟩ vs |1⟩: P(anc=1) = 1/2.
	pb, _ := NewPrepBasis(b, 1)
	low2, err := Lower(qop.Sequence{pb, st, NewMeasurement(anc)}, regs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim.Run(low2.Circuit, sim.Options{Shots: 4000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res2.Counts[1]) / 4000
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("orthogonal states anc=1 fraction = %v, want ~0.5", frac)
	}
}

func TestAngleAndAmplitudeEncoding(t *testing.T) {
	reg := intReg("r", 2)
	ae, err := NewAngleEncoding(reg, []float64{math.Pi, 0})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Lower(qop.Sequence{ae}, Registers{"r": reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	// RY(π)|0⟩ = |1⟩ on qubit 0 -> state |01⟩ = index 1.
	if math.Abs(st.Probability(1)-1) > 1e-9 {
		t.Errorf("angle encoding wrong: P(1) = %v", st.Probability(1))
	}

	amps := []complex128{0.5, 0.5, 0.5, 0.5}
	amp, err := NewAmplitudeEncoding(reg, amps)
	if err != nil {
		t.Fatal(err)
	}
	low2, err := Lower(qop.Sequence{amp}, Registers{"r": reg})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sim.Evolve(low2.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4; k++ {
		if math.Abs(st2.Probability(k)-0.25) > 1e-9 {
			t.Errorf("amplitude encoding P(%d) = %v", k, st2.Probability(k))
		}
	}
	if _, err := NewAmplitudeEncoding(reg, []complex128{1, 0, 0}); err == nil {
		t.Error("wrong-length amplitudes accepted")
	}
	if _, err := NewAmplitudeEncoding(reg, []complex128{1, 1, 0, 0}); err == nil {
		t.Error("unnormalized amplitudes accepted")
	}
}

func TestBuildQAOAStackShape(t *testing.T) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	g := graph.Cycle(4)
	seq, err := BuildQAOA(reg, g, []float64{0.4, 0.2}, []float64{0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// prep + 2×(cost+mixer) + measurement = 6.
	if len(seq) != 6 {
		t.Fatalf("QAOA p=2 stack has %d ops", len(seq))
	}
	kinds := []qop.RepKind{qop.PrepUniform, qop.IsingCostPhase, qop.MixerRX,
		qop.IsingCostPhase, qop.MixerRX, qop.Measurement}
	for i, k := range kinds {
		if seq[i].RepKind != k {
			t.Errorf("op %d kind = %s, want %s", i, seq[i].RepKind, k)
		}
	}
	if err := Validate(seq, Registers{"ising_vars": reg}); err != nil {
		t.Errorf("QAOA stack invalid: %v", err)
	}
	if _, err := BuildQAOA(reg, g, []float64{1}, []float64{}); err == nil {
		t.Error("mismatched angle lists accepted")
	}
}

func TestQAOAExpectedCutAtZeroAngles(t *testing.T) {
	// γ=β=0: the state stays uniform; expected cut over uniform cuts of
	// C4 is 2.
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	g := graph.Cycle(4)
	seq, err := BuildQAOA(reg, g, []float64{0}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	low, err := Lower(seq, Registers{"ising_vars": reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	cut := expectDiag(st, func(k uint64) float64 { return g.CutValueBits(k) })
	if math.Abs(cut-2) > 1e-9 {
		t.Errorf("zero-angle expected cut = %v, want 2", cut)
	}
}

func TestIsingProblemRoundTrip(t *testing.T) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	m := ising.FromMaxCut(graph.Cycle(4))
	m.H[2] = 0.5
	op, err := NewIsingProblem(reg, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := IsingModelFromOp(op, 4)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(0); mask < 16; mask++ {
		if math.Abs(m.EnergyBits(mask)-back.EnergyBits(mask)) > 1e-12 {
			t.Fatalf("round-tripped model disagrees at %04b", mask)
		}
	}
	// Wrong kind rejected.
	wrong := newOp("x", qop.MixerRX, "ising_vars")
	if _, err := IsingModelFromOp(wrong, 4); err == nil {
		t.Error("non-ISING_PROBLEM accepted")
	}
}

func TestIsingEvolutionLowering(t *testing.T) {
	// e^{-iHt} on a diagonal H is diagonal: probabilities of a basis
	// state are unchanged.
	reg := qdt.NewIsingVars("ising_vars", "s", 3)
	m := ising.FromMaxCut(graph.Cycle(3))
	op, err := NewIsingEvolution(reg, m, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := NewPrepBasis(reg, 5)
	low, err := Lower(qop.Sequence{pb, op}, Registers{"ising_vars": reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Probability(5)-1) > 1e-9 {
		t.Errorf("diagonal evolution moved probability: P(5) = %v", st.Probability(5))
	}
}

func TestLowerRegisterPacking(t *testing.T) {
	a := intReg("a", 2)
	b := intReg("b", 3)
	pbA, _ := NewPrepBasis(a, 1)
	pbB, _ := NewPrepBasis(b, 4)
	low, err := Lower(qop.Sequence{pbA, pbB}, Registers{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	if low.Offsets["a"] != 0 || low.Offsets["b"] != 2 {
		t.Errorf("offsets = %v", low.Offsets)
	}
	if low.Circuit.NumQubits != 5 {
		t.Errorf("total qubits = %d", low.Circuit.NumQubits)
	}
}

func TestLowerRejectsUnknownRegister(t *testing.T) {
	op := newOp("x", qop.PrepUniform, "ghost")
	if _, err := Lower(qop.Sequence{op}, Registers{}); err == nil {
		t.Error("unknown register accepted")
	}
}

func TestValidateCatchesTableMismatch(t *testing.T) {
	a := intReg("a", 2)
	if err := Validate(qop.Sequence{}, Registers{"wrong_key": a}); err == nil {
		t.Error("mismatched table key accepted")
	}
}

func TestCSwapLowering(t *testing.T) {
	reg := intReg("r", 3)
	op, err := NewCSwap(reg, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// |101⟩: control bit0=1, swap bits 1,2: bit1=0,bit2=1 -> becomes
	// bit1=1,bit2=0: |011⟩ = 3.
	pb, _ := NewPrepBasis(reg, 5)
	low, err := Lower(qop.Sequence{pb, op, NewMeasurement(reg)}, Registers{"r": reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(low.Circuit, sim.Options{Shots: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[3] != 5 {
		t.Errorf("cswap(5) counts = %v, want 3", res.Counts)
	}
	if _, err := NewCSwap(reg, 0, 0, 1); err == nil {
		t.Error("duplicate cswap bits accepted")
	}
}

// expectDiag returns Σ_k |amp_k|² f(k) over st, summed in index order.
func expectDiag(st *sim.State, f func(uint64) float64) float64 {
	total := 0.0
	for k := 0; k < st.Dim(); k++ {
		if p := st.Probability(uint64(k)); p > 0 {
			total += p * f(uint64(k))
		}
	}
	return total
}
