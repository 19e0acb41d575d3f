package sim

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
)

func mustState(t *testing.T, n int) *State {
	t.Helper()
	s, err := NewState(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cloneState returns a copy of s's amplitudes on fresh aligned planes.
func cloneState(s *State) *State {
	cp := &State{n: s.n, re: alignedFloats(len(s.re)), im: alignedFloats(len(s.im))}
	copy(cp.re, s.re)
	copy(cp.im, s.im)
	return cp
}

// stateNorm returns Σ|amp|² over s, summed in index order.
func stateNorm(s *State) float64 {
	total := 0.0
	for k := range s.re {
		total += s.Probability(uint64(k))
	}
	return total
}

// applyIns takes one instruction to s the way every instruction gets
// there: compiled (alone, so nothing fuses) and executed. The instruction
// bypasses circuit.Append, so the operand checks under test are Compile's.
func applyIns(s *State, ins circuit.Instruction) error {
	c := circuit.New(s.NumQubits(), 0)
	c.Instrs = append(c.Instrs, ins)
	pl, err := Compile(c)
	if err != nil {
		return err
	}
	return pl.Execute(s, 0)
}

func gate(name gates.Name, qubits []int, params ...float64) circuit.Instruction {
	return circuit.Instruction{Op: circuit.OpGate, Gate: name, Qubits: qubits, Params: params}
}

func permute(qubits []int, perm []uint64) circuit.Instruction {
	return circuit.Instruction{Op: circuit.OpPermute, Qubits: qubits, Perm: perm}
}

func initOp(qubits []int, amps []complex128) circuit.Instruction {
	return circuit.Instruction{Op: circuit.OpInit, Qubits: qubits, Amps: amps}
}

func apply1(t *testing.T, s *State, name gates.Name, q int, params ...float64) {
	t.Helper()
	if err := applyIns(s, gate(name, []int{q}, params...)); err != nil {
		t.Fatal(err)
	}
}

// apply2 sweeps the dense 4×4 m over the pair qLo < qHi (local basis bit 0
// is qLo's value) as a hand-built kGate2Q kernel: no single instruction
// lowers to the dense form, only fusion produces it.
func apply2(t *testing.T, s *State, m gates.Matrix4, qLo, qHi, shards int) {
	t.Helper()
	pl := &Plan{n: s.NumQubits(), kernels: []kernel{{
		kind: kGate2Q, support: 1<<qLo | 1<<qHi, q: qLo, q2: qHi, m4: m, m4s: m.Split(),
	}}}
	if err := pl.Execute(s, shards); err != nil {
		t.Fatal(err)
	}
}

func TestNewStateBounds(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Error("0-qubit state accepted")
	}
	if _, err := NewState(MaxQubits + 1); err == nil {
		t.Error("oversized state accepted")
	}
	s := mustState(t, 3)
	if s.Dim() != 8 || s.NumQubits() != 3 {
		t.Errorf("dim %d, n %d", s.Dim(), s.NumQubits())
	}
	if s.Probability(0) != 1 {
		t.Error("initial state not |000⟩")
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := mustState(t, 1)
	apply1(t, s, gates.H, 0)
	for k := uint64(0); k < 2; k++ {
		if math.Abs(s.Probability(k)-0.5) > 1e-12 {
			t.Errorf("P(%d) = %v, want 0.5", k, s.Probability(k))
		}
	}
	// H² = I.
	apply1(t, s, gates.H, 0)
	if math.Abs(s.Probability(0)-1) > 1e-12 {
		t.Error("H·H != I")
	}
}

func TestXFlipsBit(t *testing.T) {
	s := mustState(t, 3)
	apply1(t, s, gates.X, 1)
	if math.Abs(s.Probability(2)-1) > 1e-12 {
		t.Errorf("X on qubit 1 gave P(2) = %v", s.Probability(2))
	}
}

func TestBellState(t *testing.T) {
	s := mustState(t, 2)
	apply1(t, s, gates.H, 0)
	if err := applyIns(s, gate(gates.CX, []int{0, 1})); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(3)-0.5) > 1e-12 {
		t.Errorf("Bell probabilities: %v %v %v %v",
			s.Probability(0), s.Probability(1), s.Probability(2), s.Probability(3))
	}
	if s.Probability(1) > 1e-12 || s.Probability(2) > 1e-12 {
		t.Error("Bell state has weight on |01⟩/|10⟩")
	}
}

func TestGHZ(t *testing.T) {
	s := mustState(t, 5)
	apply1(t, s, gates.H, 0)
	for q := 1; q < 5; q++ {
		if err := applyIns(s, gate(gates.CX, []int{0, q})); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(31)-0.5) > 1e-12 {
		t.Error("GHZ state wrong")
	}
	if math.Abs(stateNorm(s)-1) > 1e-12 {
		t.Errorf("norm = %v", stateNorm(s))
	}
}

func TestCZPhase(t *testing.T) {
	s := mustState(t, 2)
	apply1(t, s, gates.H, 0)
	apply1(t, s, gates.H, 1)
	if err := applyIns(s, gate(gates.CZ, []int{0, 1})); err != nil {
		t.Fatal(err)
	}
	// Amplitude of |11⟩ is negative.
	if real(s.Amplitude(3)) > 0 {
		t.Error("CZ did not flip |11⟩ phase")
	}
	if real(s.Amplitude(1)) < 0 || real(s.Amplitude(2)) < 0 {
		t.Error("CZ touched wrong amplitudes")
	}
}

func TestCPAngle(t *testing.T) {
	s := mustState(t, 2)
	apply1(t, s, gates.X, 0)
	apply1(t, s, gates.X, 1)
	theta := 0.7312
	if err := applyIns(s, gate(gates.CP, []int{0, 1}, theta)); err != nil {
		t.Fatal(err)
	}
	want := cmplx.Exp(complex(0, theta))
	if cmplx.Abs(s.Amplitude(3)-want) > 1e-12 {
		t.Errorf("CP phase = %v, want %v", s.Amplitude(3), want)
	}
}

func TestSwapExchangesQubits(t *testing.T) {
	s := mustState(t, 3)
	apply1(t, s, gates.X, 0) // |001⟩
	if err := applyIns(s, gate(gates.SWAP, []int{0, 2})); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(4)-1) > 1e-12 {
		t.Error("swap did not move the excitation")
	}
	// Swap equals 3 CXs.
	a := mustState(t, 2)
	apply1(t, a, gates.H, 0)
	apply1(t, a, gates.T, 1)
	apply1(t, a, gates.H, 1)
	b := cloneState(a)
	if err := applyIns(a, gate(gates.SWAP, []int{0, 1})); err != nil {
		t.Fatal(err)
	}
	_ = applyIns(b, gate(gates.CX, []int{0, 1}))
	_ = applyIns(b, gate(gates.CX, []int{1, 0}))
	_ = applyIns(b, gate(gates.CX, []int{0, 1}))
	for k := uint64(0); k < 4; k++ {
		if cmplx.Abs(a.Amplitude(k)-b.Amplitude(k)) > 1e-12 {
			t.Errorf("swap != cx·cx·cx at %d", k)
		}
	}
}

func TestCCXTruthTable(t *testing.T) {
	for in := uint64(0); in < 8; in++ {
		s := mustState(t, 3)
		for q := 0; q < 3; q++ {
			if in>>uint(q)&1 == 1 {
				apply1(t, s, gates.X, q)
			}
		}
		if err := applyIns(s, gate(gates.CCX, []int{0, 1, 2})); err != nil {
			t.Fatal(err)
		}
		want := in
		if in&3 == 3 {
			want = in ^ 4
		}
		if math.Abs(s.Probability(want)-1) > 1e-12 {
			t.Errorf("CCX(%03b) did not produce %03b", in, want)
		}
	}
}

func TestCSwapTruthTable(t *testing.T) {
	for in := uint64(0); in < 8; in++ {
		s := mustState(t, 3)
		for q := 0; q < 3; q++ {
			if in>>uint(q)&1 == 1 {
				apply1(t, s, gates.X, q)
			}
		}
		if err := applyIns(s, gate(gates.CSWAP, []int{0, 1, 2})); err != nil {
			t.Fatal(err)
		}
		want := in
		if in&1 == 1 {
			b1 := in >> 1 & 1
			b2 := in >> 2 & 1
			want = in&1 | b1<<2 | b2<<1
		}
		if math.Abs(s.Probability(want)-1) > 1e-12 {
			t.Errorf("CSWAP(%03b) did not produce %03b", in, want)
		}
	}
}

// TestApply2MatchesNamedGates checks the dense two-qubit kernel against
// the specialized pair exchange a lone CX compiles to, with the control on
// the lower and on the higher qubit of the pair.
func TestApply2MatchesNamedGates(t *testing.T) {
	prep := func() *State {
		s := mustState(t, 3)
		apply1(t, s, gates.H, 0)
		apply1(t, s, gates.T, 1)
		apply1(t, s, gates.RY, 2, 0.8)
		apply1(t, s, gates.H, 2)
		return s
	}
	for _, ops := range [][2]int{{0, 2}, {2, 0}, {1, 2}} {
		ctrl, tgt := ops[0], ops[1]
		a, b := prep(), prep()
		apply2(t, a, mat4CX(ctrl > tgt), min(ctrl, tgt), max(ctrl, tgt), 1)
		if err := applyIns(b, gate(gates.CX, []int{ctrl, tgt})); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 8; k++ {
			if cmplx.Abs(a.Amplitude(k)-b.Amplitude(k)) > 1e-12 {
				t.Errorf("dense CX(%d,%d) != specialized CX at %d", ctrl, tgt, k)
			}
		}
	}
}

// TestApply2KronOfSingles checks the basis convention: Kron2(mHi, mLo)
// swept over (qLo, qHi) must equal applying mLo to qLo and mHi to qHi.
func TestApply2KronOfSingles(t *testing.T) {
	a, b := mustState(t, 4), mustState(t, 4)
	for _, s := range []*State{a, b} {
		apply1(t, s, gates.H, 1)
		apply1(t, s, gates.H, 3)
	}
	apply2(t, a, gates.Kron2(mustU1(t, gates.SX), mustU1(t, gates.RY, 0.7)), 1, 3, 1)
	apply1(t, b, gates.RY, 1, 0.7)
	apply1(t, b, gates.SX, 3)
	for k := uint64(0); k < 16; k++ {
		if cmplx.Abs(a.Amplitude(k)-b.Amplitude(k)) > 1e-12 {
			t.Fatalf("Kron2 application mismatch at %d: %v vs %v", k, a.Amplitude(k), b.Amplitude(k))
		}
	}
}

// TestApply2HighPairBlockedSweep pushes a dense pair onto high qubits of a
// state large enough to shard, exercising a high-stride pair sweep on one
// shard and on four: both must match the complex128 reference bit for bit.
func TestApply2HighPairBlockedSweep(t *testing.T) {
	n := 15
	m := gates.Mul4(gates.Kron2(mustU1(t, gates.H), mustU1(t, gates.H)),
		gates.Matrix4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}})
	ref := refNew(n)
	refApply1(ref, mustU1(t, gates.H), 0)
	refApply1(ref, mustU1(t, gates.RY, 0.6), n-1)
	refApply2(ref, m, n-2, n-1)
	for _, shards := range []int{1, 4} {
		s := mustState(t, n)
		apply1(t, s, gates.H, 0)
		apply1(t, s, gates.RY, n-1, 0.6)
		apply2(t, s, m, n-2, n-1, shards)
		if math.Abs(stateNorm(s)-1) > 1e-9 {
			t.Fatalf("shards=%d: norm drifted: %v", shards, stateNorm(s))
		}
		for k := range ref {
			if got := s.Amplitude(uint64(k)); got != ref[k] {
				t.Fatalf("shards=%d: high-pair sweep %v != reference %v at %d", shards, got, ref[k], k)
			}
		}
	}
}

func mustU1(t *testing.T, n gates.Name, params ...float64) gates.Matrix2 {
	t.Helper()
	m, err := gates.Unitary1(n, params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOperandValidation(t *testing.T) {
	s := mustState(t, 2)
	if err := applyIns(s, gate(gates.X, []int{5})); err == nil {
		t.Error("out-of-range qubit accepted")
	}
	if err := applyIns(s, gate(gates.CX, []int{0, 0})); err == nil {
		t.Error("duplicate qubits accepted")
	}
	if err := applyIns(s, gate(gates.CCX, []int{0, 1, 7})); err == nil {
		t.Error("out-of-range target accepted")
	}
	if s.Probability(0) != 1 {
		t.Error("a rejected instruction touched the state")
	}
}

func TestApplyPermuteCyclic(t *testing.T) {
	s := mustState(t, 2)
	apply1(t, s, gates.X, 0) // index 1
	// Cyclic +1 mod 4 over qubits [0,1].
	if err := applyIns(s, permute([]int{0, 1}, []uint64{1, 2, 3, 0})); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(2)-1) > 1e-12 {
		t.Error("permute did not map 1 -> 2")
	}
}

func TestApplyPermuteSubsetOfLargerState(t *testing.T) {
	// Permute only qubits {0, 2} of a 3-qubit state; qubit 1 is a spectator.
	s := mustState(t, 3)
	apply1(t, s, gates.X, 1) // |010⟩ = index 2
	apply1(t, s, gates.X, 0) // |011⟩ = index 3
	// Over locals (q0, q2): local = q0 + 2·q2; swap local 1 <-> 2
	// (i.e. swap q0 and q2).
	if err := applyIns(s, permute([]int{0, 2}, []uint64{0, 2, 1, 3})); err != nil {
		t.Fatal(err)
	}
	// q0=1 becomes q2=1: index = 2 (q1) + 4 (q2) = 6.
	if math.Abs(s.Probability(6)-1) > 1e-12 {
		t.Error("subset permute wrong")
	}
}

func TestPermutePreservesNorm(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := mustStateQuick(4)
		// Random product state.
		for q := 0; q < 4; q++ {
			_ = applyIns(s, gate(gates.RY, []int{q}, r.Float64()*3))
			_ = applyIns(s, gate(gates.RZ, []int{q}, r.Float64()*3))
		}
		// Random permutation over qubits 1..2.
		perm := make([]uint64, 4)
		for i, p := range r.Perm(4) {
			perm[i] = uint64(p)
		}
		if err := applyIns(s, permute([]int{1, 2}, perm)); err != nil {
			return false
		}
		return math.Abs(stateNorm(s)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func mustStateQuick(n int) *State {
	s, err := NewState(n)
	if err != nil {
		panic(err)
	}
	return s
}

func TestApplyInit(t *testing.T) {
	s := mustState(t, 2)
	amps := []complex128{0.6, 0, 0, 0.8}
	if err := applyIns(s, initOp([]int{0, 1}, amps)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-0.36) > 1e-12 || math.Abs(s.Probability(3)-0.64) > 1e-12 {
		t.Error("init amplitudes wrong")
	}
}

func TestApplyInitRejects(t *testing.T) {
	s := mustState(t, 2)
	if err := applyIns(s, initOp([]int{0}, []complex128{2, 0})); err == nil {
		t.Error("unnormalized init accepted")
	}
	apply1(t, s, gates.X, 0)
	if err := applyIns(s, initOp([]int{0}, []complex128{1, 0})); err == nil {
		t.Error("init on non-|0⟩ qubit accepted")
	}
	if err := applyIns(s, initOp([]int{1}, []complex128{1})); err == nil {
		t.Error("wrong init size accepted")
	}
}

func TestInitOnSubsetWithSpectators(t *testing.T) {
	s := mustState(t, 2)
	apply1(t, s, gates.H, 0) // qubit 0 in superposition, qubit 1 still |0⟩
	inv := 1 / math.Sqrt2
	if err := applyIns(s, initOp([]int{1}, []complex128{complex(inv, 0), complex(inv, 0)})); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4; k++ {
		if math.Abs(s.Probability(k)-0.25) > 1e-12 {
			t.Errorf("P(%d) = %v, want 0.25", k, s.Probability(k))
		}
	}
}

func TestUnitarityPreservedUnderRandomCircuits(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := mustStateQuick(5)
		oneQ := []gates.Name{gates.H, gates.X, gates.T, gates.SX, gates.RZ, gates.RY}
		for step := 0; step < 40; step++ {
			if r.Float64() < 0.3 {
				a := r.Intn(5)
				b := (a + 1 + r.Intn(4)) % 5
				_ = applyIns(s, gate(gates.CX, []int{a, b}))
			} else {
				g := oneQ[r.Intn(len(oneQ))]
				info, _ := gates.Lookup(g)
				var params []float64
				if info.Params == 1 {
					params = []float64{r.Float64()*6 - 3}
				}
				_ = applyIns(s, gate(g, []int{r.Intn(5)}, params...))
			}
		}
		return math.Abs(stateNorm(s)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// A 14-qubit state crosses parallelThreshold; verify the fan-out path
	// produces the same state as a small serial reference computed via a
	// different route (H on all qubits = uniform).
	s := mustState(t, 14)
	for q := 0; q < 14; q++ {
		apply1(t, s, gates.H, q)
	}
	want := 1.0 / float64(s.Dim())
	for _, k := range []uint64{0, 1, 5000, uint64(s.Dim() - 1)} {
		if math.Abs(s.Probability(k)-want) > 1e-12 {
			t.Errorf("P(%d) = %v, want %v", k, s.Probability(k), want)
		}
	}
	if math.Abs(stateNorm(s)-1) > 1e-9 {
		t.Errorf("norm = %v", stateNorm(s))
	}
}
