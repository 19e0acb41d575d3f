package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
)

// This file is the SoA-vs-complex128 parity suite for the split-plane
// amplitude layout: a self-contained []complex128 reference simulator
// mirrors the engine's per-gate semantics, and the tests check the split
// kernels against it — at 1e-9 over random mixed circuits on every kernel
// class and shard grant, and bit-for-bit where the arithmetic grouping
// contract makes exact equality a theorem rather than a hope.

// ---- complex128 reference simulator ----

func refNew(n int) []complex128 {
	a := make([]complex128, 1<<n)
	a[0] = 1
	return a
}

func refApply1(a []complex128, m gates.Matrix2, q int) {
	stride := 1 << q
	low := stride - 1
	m00, m01, m10, m11 := m[0][0], m[0][1], m[1][0], m[1][1]
	for p := 0; p < len(a)/2; p++ {
		i := (p&^low)<<1 | p&low
		j := i | stride
		a0, a1 := a[i], a[j]
		a[i] = m00*a0 + m01*a1
		a[j] = m10*a0 + m11*a1
	}
}

// refApply2 mirrors the dense kGate2Q sweep (local basis bit 0 is q0's
// value), with a SWAP-conjugation reorder for q0 > q1, so the quad
// summation order matches the engine's.
func refApply2(a []complex128, m gates.Matrix4, q0, q1 int) {
	if q0 > q1 {
		perm := [4]int{0, 2, 1, 3}
		var sm gates.Matrix4
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				sm[i][j] = m[perm[i]][perm[j]]
			}
		}
		m = sm
		q0, q1 = q1, q0
	}
	maskLo, maskHi := 1<<q0, 1<<q1
	lowLo, lowHi := maskLo-1, maskHi-1
	for c := 0; c < len(a)/4; c++ {
		x := (c&^lowLo)<<1 | c&lowLo
		i := (x&^lowHi)<<1 | x&lowHi
		j := i | maskLo
		k := i | maskHi
		l := j | maskHi
		a0, a1, a2, a3 := a[i], a[j], a[k], a[l]
		a[i] = m[0][0]*a0 + m[0][1]*a1 + m[0][2]*a2 + m[0][3]*a3
		a[j] = m[1][0]*a0 + m[1][1]*a1 + m[1][2]*a2 + m[1][3]*a3
		a[k] = m[2][0]*a0 + m[2][1]*a1 + m[2][2]*a2 + m[2][3]*a3
		a[l] = m[3][0]*a0 + m[3][1]*a1 + m[3][2]*a2 + m[3][3]*a3
	}
}

func refCtrlPerm(a []complex128, ones, zeros []int, flip int) {
	oneMask, zeroMask := 0, 0
	for _, q := range ones {
		oneMask |= 1 << q
	}
	for _, q := range zeros {
		zeroMask |= 1 << q
	}
	for i := range a {
		if i&oneMask == oneMask && i&zeroMask == 0 {
			j := i ^ flip
			a[i], a[j] = a[j], a[i]
		}
	}
}

func refCtrlPhase(a []complex128, qubits []int, ph complex128) {
	mask := 0
	for _, q := range qubits {
		mask |= 1 << q
	}
	for i := range a {
		if i&mask == mask {
			a[i] *= ph
		}
	}
}

func refDiagonal(a []complex128, qubits []int, phases []complex128) {
	for i := range a {
		local := 0
		for k, q := range qubits {
			if i>>q&1 == 1 {
				local |= 1 << k
			}
		}
		a[i] *= phases[local]
	}
}

func refInstruction(t *testing.T, a []complex128, ins circuit.Instruction) {
	t.Helper()
	switch ins.Op {
	case circuit.OpGate:
		switch ins.Gate {
		case gates.CX:
			refCtrlPerm(a, []int{ins.Qubits[0]}, []int{ins.Qubits[1]}, 1<<ins.Qubits[1])
		case gates.CZ:
			refCtrlPhase(a, ins.Qubits, -1)
		case gates.CP:
			refCtrlPhase(a, ins.Qubits, phaseExp(ins.Params[0]))
		case gates.SWAP:
			refCtrlPerm(a, []int{ins.Qubits[0]}, []int{ins.Qubits[1]}, 1<<ins.Qubits[0]|1<<ins.Qubits[1])
		case gates.CCX:
			refCtrlPerm(a, []int{ins.Qubits[0], ins.Qubits[1]}, []int{ins.Qubits[2]}, 1<<ins.Qubits[2])
		case gates.CSWAP:
			refCtrlPerm(a, []int{ins.Qubits[0], ins.Qubits[1]}, []int{ins.Qubits[2]},
				1<<ins.Qubits[1]|1<<ins.Qubits[2])
		default:
			m, err := gates.Unitary1(ins.Gate, ins.Params)
			if err != nil {
				t.Fatal(err)
			}
			refApply1(a, m, ins.Qubits[0])
		}
	case circuit.OpDiagonal:
		refDiagonal(a, ins.Qubits, ins.Phases)
	case circuit.OpInit:
		mask := 0
		for _, q := range ins.Qubits {
			mask |= 1 << q
		}
		// Snapshot, as the engine reads from the scratch plane: an in-place
		// gather would read already-overwritten source amplitudes.
		src := append([]complex128(nil), a...)
		for i := range a {
			local := 0
			for k, q := range ins.Qubits {
				if i>>q&1 == 1 {
					local |= 1 << k
				}
			}
			a[i] = src[i&^mask] * ins.Amps[local]
		}
	default:
		t.Fatalf("reference simulator: unhandled opcode %d", ins.Op)
	}
}

// phaseExp mirrors the engine's cmplx.Exp(complex(0, λ)) phase.
func phaseExp(lambda float64) complex128 {
	return complex(math.Cos(lambda), math.Sin(lambda))
}

// ---- random circuit generation ----

// randomMixedCircuit draws from every kernel class the engine compiles:
// fused 1Q runs, dense 4×4 (1Q folded into 2Q pairs), monomial chains,
// phase tables, and pair exchanges.
func randomMixedCircuit(r *rand.Rand, n, depth int) *circuit.Circuit {
	c := circuit.New(n, n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	oneQ := []gates.Name{gates.H, gates.X, gates.Y, gates.Z, gates.S, gates.Sdg,
		gates.T, gates.Tdg, gates.SX, gates.RX, gates.RY, gates.RZ, gates.P}
	for d := 0; d < depth; d++ {
		switch r.Intn(8) {
		case 0, 1, 2:
			g := oneQ[r.Intn(len(oneQ))]
			q := r.Intn(n)
			info, _ := gates.Lookup(g)
			if info.Params == 1 {
				c.Gate(g, []int{q}, r.Float64()*2*math.Pi)
			} else {
				c.Gate(g, []int{q})
			}
		case 3:
			q := r.Intn(n - 1)
			c.CX(q, q+1)
		case 4:
			a, b := twoDistinct(r, n)
			switch r.Intn(3) {
			case 0:
				c.CZGate(a, b)
			case 1:
				c.CPhase(r.Float64()*2*math.Pi, a, b)
			case 2:
				c.Swap(a, b)
			}
		case 5:
			if n >= 3 {
				qs := r.Perm(n)[:3]
				if r.Intn(2) == 0 {
					c.CCX(qs[0], qs[1], qs[2])
				} else {
					c.CSwap(qs[0], qs[1], qs[2])
				}
			}
		case 6:
			// Long-range CX to hit high-stride sweeps.
			a, b := twoDistinct(r, n)
			c.CX(a, b)
		case 7:
			k := 1 + r.Intn(min(3, n))
			qs := r.Perm(n)[:k]
			phases := make([]complex128, 1<<k)
			for i := range phases {
				phases[i] = phaseExp(r.Float64() * 2 * math.Pi)
			}
			if err := c.Diagonal(qs, phases); err != nil {
				panic(err)
			}
		}
	}
	return c
}

func twoDistinct(r *rand.Rand, n int) (int, int) {
	a := r.Intn(n)
	b := r.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

func maxAmpDiff(st *State, ref []complex128) float64 {
	worst := 0.0
	for i := range ref {
		d := st.Amplitude(uint64(i)) - ref[i]
		if ad := math.Hypot(real(d), imag(d)); ad > worst {
			worst = ad
		}
	}
	return worst
}

// TestSoAParityRandomCircuits runs random mixed circuits on 2–12 qubits
// through the compiled plan at shard grants {1, 4, GOMAXPROCS} and through
// the unfused per-gate compile, comparing every amplitude against the
// complex128 reference at 1e-9.
func TestSoAParityRandomCircuits(t *testing.T) {
	shardGrants := []int{1, 4, runtime.GOMAXPROCS(0)}
	for n := 2; n <= 12; n++ {
		r := rand.New(rand.NewSource(int64(1000 + n)))
		c := randomMixedCircuit(r, n, 30+4*n)
		ref := refNew(n)
		for _, ins := range c.Instrs {
			refInstruction(t, ref, ins)
		}
		for _, shards := range shardGrants {
			st, err := EvolveShards(c, shards)
			if err != nil {
				t.Fatalf("n=%d shards=%d: %v", n, shards, err)
			}
			if d := maxAmpDiff(st, ref); d > 1e-9 {
				t.Errorf("n=%d shards=%d: plan-vs-reference amplitude diff %g", n, shards, d)
			}
		}
		if d := maxAmpDiff(evolveDirect(t, c), ref); d > 1e-9 {
			t.Errorf("n=%d: direct-vs-reference amplitude diff %g", n, d)
		}
	}
}

// TestSoABitExactDirect pins the arithmetic grouping contract of the split
// kernels: every kernel of the unfused compile — the kernels a noise
// trajectory applies — must leave amplitudes bit-identical to the
// complex128 reference, because each split expression groups exactly as
// Go complex arithmetic — real (m·a)ʳ = (mr·ar − mi·ai), sums of products
// associating left to right. This is what keeps sampled counts unchanged
// across the layout refactor and across the move of trajectories onto
// compiled kernels.
func TestSoABitExactDirect(t *testing.T) {
	for n := 2; n <= 10; n += 2 {
		r := rand.New(rand.NewSource(int64(7000 + n)))
		c := randomMixedCircuit(r, n, 40)
		pl, err := compile(c, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.kernels) != len(c.Instrs) {
			t.Fatalf("n=%d: %d kernels for %d instructions", n, len(pl.kernels), len(c.Instrs))
		}
		ref := refNew(n)
		st := mustStateQuick(n)
		for idx, ins := range c.Instrs {
			refInstruction(t, ref, ins)
			step := &Plan{n: n, kernels: pl.kernels[idx : idx+1]}
			if err := step.Execute(st, 1); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				// Exact float equality; == conflates ±0, which is the
				// contract — a skipped exact-zero term may flip a zero's
				// sign, and no probability or count can observe that.
				if got := st.Amplitude(uint64(i)); got != ref[i] {
					t.Fatalf("n=%d instr=%d amp[%d]: split %v != reference %v (exact)",
						n, idx, i, got, ref[i])
				}
			}
		}
	}
}

// exactPhaseCircuit builds a circuit whose fused kernels stay arithmetically
// exact: the state starts in an Init superposition with dyadic amplitudes
// (±2^{-n/2}, ±i·2^{-n/2}; n even, so the norm is exactly 1), and every gate
// after it is a monomial with phases in {1, −1, i, −i}. Products of such
// matrices have at most one nonzero term per entry, so fusion (Mul2/Mul4,
// diag merges) composes without rounding and compiled plan execution must
// match the per-gate reference bit-for-bit. (A Hadamard layer would not do:
// two 1/√2-scale matrices folding into one dense 4×4 put fl(s·s) into the
// fused entries, which rounds differently than sequential application.)
// This drives the monomial transposition, real-cycle and complex-cycle fast
// paths plus pair exchange and phase tables through an exact-equality check.
func exactPhaseCircuit(r *rand.Rand, n, depth int) *circuit.Circuit {
	if n%2 != 0 {
		panic("exactPhaseCircuit: n must be even for an exactly normalized dyadic Init")
	}
	c := circuit.New(n, 0)
	exact := []complex128{1, -1, 1i, -1i}
	scale := math.Ldexp(1, -n/2) // 2^{-n/2}, exact
	amps := make([]complex128, 1<<n)
	allQubits := make([]int, n)
	for q := range allQubits {
		allQubits[q] = q
	}
	for i := range amps {
		amps[i] = exact[r.Intn(len(exact))] * complex(scale, 0)
	}
	if err := c.Init(allQubits, amps); err != nil {
		panic(err)
	}
	for d := 0; d < depth; d++ {
		switch r.Intn(6) {
		case 0:
			q := r.Intn(n)
			switch r.Intn(4) {
			case 0:
				c.X(q)
			case 1:
				c.Z(q)
			case 2:
				c.S(q)
			case 3:
				c.Gate(gates.Sdg, []int{q})
			}
		case 1:
			q := r.Intn(n - 1)
			c.CX(q, q+1)
		case 2:
			a, b := twoDistinct(r, n)
			c.CX(a, b)
		case 3:
			a, b := twoDistinct(r, n)
			if r.Intn(2) == 0 {
				c.CZGate(a, b)
			} else {
				c.Swap(a, b)
			}
		case 4:
			if n >= 3 {
				qs := r.Perm(n)[:3]
				c.CCX(qs[0], qs[1], qs[2])
			}
		case 5:
			k := 1 + r.Intn(min(3, n))
			qs := r.Perm(n)[:k]
			phases := make([]complex128, 1<<k)
			for i := range phases {
				phases[i] = exact[r.Intn(len(exact))]
			}
			if err := c.Diagonal(qs, phases); err != nil {
				panic(err)
			}
		}
	}
	return c
}

// TestSoABitExactPlanExactPhases runs the exact-phase circuits through the
// compiled plan at every shard grant and demands bitwise equality with the
// per-gate complex128 reference.
func TestSoABitExactPlanExactPhases(t *testing.T) {
	shardGrants := []int{1, 4, runtime.GOMAXPROCS(0)}
	for n := 2; n <= 10; n += 2 {
		r := rand.New(rand.NewSource(int64(4000 + n)))
		c := exactPhaseCircuit(r, n, 50)
		ref := refNew(n)
		for _, ins := range c.Instrs {
			refInstruction(t, ref, ins)
		}
		for _, shards := range shardGrants {
			st, err := EvolveShards(c, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				// Exact float equality, ±0 conflated (see
				// TestSoABitExactDirect).
				if got := st.Amplitude(uint64(i)); got != ref[i] {
					t.Fatalf("n=%d shards=%d amp[%d]: plan %v != reference %v (exact)",
						n, shards, i, got, ref[i])
				}
			}
		}
	}
}

// TestRunCountsMatchTwoPassReference checks end to end that the sampling
// stage on the split planes reproduces, bit for bit, the counts obtained
// by sampling the two-pass reference CDF (the PR 4 fixed-block build) with
// the same seed — across shard grants {1, 4, GOMAXPROCS}.
func TestRunCountsMatchTwoPassReference(t *testing.T) {
	const shots = 2000
	const seed = 99
	r := rand.New(rand.NewSource(11))
	c := randomMixedCircuit(r, 9, 60)
	c.MeasureAll()
	mm := c.MeasureMap()
	qubits := refQubits(mm)

	pl := mustCompile(t, c)
	var baseline Counts
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, final := runKept(t, c, pl, Options{Shots: shots, Seed: seed, Shards: shards})
		// Reference counts: the serial two-pass CDF over the same final
		// state, inverted with an identical RNG stream.
		cdf, acc, lastPos := referenceCDF(final)
		want := Counts{}
		rr := rng.New(seed)
		for shot := 0; shot < shots; shot++ {
			k := refSampleCDF(cdf, lastPos, rr.Float64()*acc)
			want[refProjectRegister(k, qubits, mm, 0, nil)]++
		}
		if !reflect.DeepEqual(res.Counts, want) {
			t.Fatalf("shards=%d: counts diverge from two-pass reference CDF", shards)
		}
		if baseline == nil {
			baseline = res.Counts
		} else if !reflect.DeepEqual(res.Counts, baseline) {
			t.Fatalf("shards=%d: counts differ from shards=1 grant", shards)
		}
	}
	if err := quickSanity(baseline, shots); err != nil {
		t.Fatal(err)
	}
}

func quickSanity(counts Counts, shots int) error {
	if got := counts.TotalShots(); got != shots {
		return fmt.Errorf("total shots %d != %d", got, shots)
	}
	return nil
}
