package sim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// randomCircuit builds a mixed circuit over n qubits: single-qubit gates
// (parametric and fixed), the two- and three-qubit standard gates, and the
// native diagonal/permute ops, optionally opening with a native init. The
// mix is weighted toward gate runs so the fusion paths all exercise.
func randomCircuit(r *rand.Rand, n, depth int) *circuit.Circuit {
	c := circuit.New(n, n)
	oneQ := []gates.Name{
		gates.I, gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.Sdg,
		gates.T, gates.Tdg, gates.SX, gates.RX, gates.RY, gates.RZ, gates.P,
	}
	pick := func(k int) []int { // k distinct qubits
		qs := r.Perm(n)[:k]
		return qs
	}
	if r.Intn(3) == 0 {
		k := 1 + r.Intn(min(2, n))
		amps := randomLocalState(r, k)
		if err := c.Init(pick(k), amps); err != nil {
			panic(err)
		}
	}
	for i := 0; i < depth; i++ {
		switch roll := r.Intn(10); {
		case roll < 4: // single-qubit gate
			name := oneQ[r.Intn(len(oneQ))]
			info, _ := gates.Lookup(name)
			var params []float64
			if info.Params == 1 {
				params = []float64{r.Float64()*4*math.Pi - 2*math.Pi}
			}
			c.Gate(name, pick(1), params...)
		case roll < 7 && n >= 2: // two-qubit gate
			qs := pick(2)
			switch r.Intn(4) {
			case 0:
				c.CX(qs[0], qs[1])
			case 1:
				c.CZGate(qs[0], qs[1])
			case 2:
				c.CPhase(r.Float64()*4*math.Pi-2*math.Pi, qs[0], qs[1])
			default:
				c.Swap(qs[0], qs[1])
			}
		case roll < 8 && n >= 3: // three-qubit gate
			qs := pick(3)
			if r.Intn(2) == 0 {
				c.CCX(qs[0], qs[1], qs[2])
			} else {
				c.CSwap(qs[0], qs[1], qs[2])
			}
		case roll < 9: // native diagonal
			k := 1 + r.Intn(min(3, n))
			qs := pick(k)
			phases := make([]complex128, 1<<k)
			for j := range phases {
				phases[j] = cmplx.Exp(complex(0, r.Float64()*2*math.Pi))
			}
			if err := c.Diagonal(qs, phases); err != nil {
				panic(err)
			}
		default: // native permutation
			k := 1 + r.Intn(min(3, n))
			qs := pick(k)
			perm := make([]uint64, 1<<k)
			for j, p := range r.Perm(1 << k) {
				perm[j] = uint64(p)
			}
			if err := c.Permute(qs, perm); err != nil {
				panic(err)
			}
		}
	}
	return c
}

func randomLocalState(r *rand.Rand, k int) []complex128 {
	amps := make([]complex128, 1<<k)
	norm := 0.0
	for i := range amps {
		amps[i] = complex(r.NormFloat64(), r.NormFloat64())
		norm += real(amps[i])*real(amps[i]) + imag(amps[i])*imag(amps[i])
	}
	scale := complex(1/math.Sqrt(norm), 0)
	for i := range amps {
		amps[i] *= scale
	}
	return amps
}

// evolveDirect is the per-gate reference: the unfused compile — one
// kernel per instruction, the plan noise trajectories run — taken through
// the plan executor on one shard.
func evolveDirect(t *testing.T, c *circuit.Circuit) *State {
	t.Helper()
	pl, err := compile(c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pl.Stats(), (PlanStats{SourceOps: len(pl.kernels), Kernels: len(pl.kernels)}); got != want {
		t.Fatalf("unfused compile fused something: %+v", got)
	}
	st := mustState(t, c.NumQubits)
	if err := pl.Execute(st, 1); err != nil {
		t.Fatal(err)
	}
	return st
}

func maxAmpDelta(a, b *State) float64 {
	worst := 0.0
	for k := 0; k < a.Dim(); k++ {
		if d := cmplx.Abs(a.Amplitude(uint64(k)) - b.Amplitude(uint64(k))); d > worst {
			worst = d
		}
	}
	return worst
}

// TestCompileParityRandomCircuits is the compile-vs-direct parity check:
// random mixed circuits on 2–12 qubits executed through the fused kernel
// plan must agree amplitude-wise with the direct per-gate path within
// 1e-9, at shard counts 1, 4 and GOMAXPROCS.
func TestCompileParityRandomCircuits(t *testing.T) {
	shardCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for n := 2; n <= 12; n++ {
		for trial := 0; trial < 4; trial++ {
			r := rand.New(rand.NewSource(int64(1000*n + trial)))
			depth := 10 + r.Intn(40)
			c := randomCircuit(r, n, depth)
			want := evolveDirect(t, c)
			pl, err := Compile(c)
			if err != nil {
				t.Fatalf("n=%d trial=%d: compile: %v", n, trial, err)
			}
			for _, shards := range shardCounts {
				st := mustState(t, n)
				if err := pl.Execute(st, shards); err != nil {
					t.Fatalf("n=%d trial=%d shards=%d: %v", n, trial, shards, err)
				}
				if d := maxAmpDelta(want, st); d > 1e-9 {
					t.Errorf("n=%d trial=%d shards=%d: max amplitude delta %v\n%s",
						n, trial, shards, d, c)
				}
			}
		}
	}
}

// TestEvolvePlanMatchesDirect covers the public entry points on a
// structured circuit (QFT-style phase cascade plus entanglers).
func TestEvolvePlanMatchesDirect(t *testing.T) {
	n := 6
	c := circuit.New(n, n)
	for q := 0; q < n; q++ {
		c.H(q)
		for k := q + 1; k < n; k++ {
			c.CPhase(math.Pi/float64(int(1)<<(k-q)), k, q)
		}
	}
	for q := 0; q < n-1; q++ {
		c.CX(q, q+1)
	}
	want := evolveDirect(t, c)
	for _, shards := range []int{0, 1, 3} {
		got, err := EvolveShards(c, shards)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAmpDelta(want, got); d > 1e-9 {
			t.Errorf("shards=%d: max amplitude delta %v", shards, d)
		}
	}
}

// TestCompileFuses1QRuns checks that a run of single-qubit gates on one
// qubit — including gates on other qubits in between — compiles to a
// single 2×2 kernel.
func TestCompileFuses1QRuns(t *testing.T) {
	c := circuit.New(3, 0)
	c.H(0).RZ(0.3, 0).SXGate(0) // one fused kernel on q0
	c.H(1)                      // separate kernel, commutes past q0's run
	c.RZ(0.7, 0)                // still fuses into q0's kernel
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Kernels != 2 {
		t.Errorf("kernels = %d, want 2 (fused q0 run + h q1); stats %+v", st.Kernels, st)
	}
	if st.Fused1Q != 3 {
		t.Errorf("fused 1q = %d, want 3", st.Fused1Q)
	}
}

// TestCompileMergesDiagonalRuns checks that a CZ/CP chain merges into
// diagonal kernels instead of one sweep per gate.
func TestCompileMergesDiagonalRuns(t *testing.T) {
	n := 6
	c := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		c.CZGate(q, (q+1)%n) // ring: supports chain-overlap
	}
	c.CPhase(0.25, 0, 3)
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Kernels != 1 {
		t.Errorf("kernels = %d, want 1 merged diagonal (stats %+v)", st.Kernels, st)
	}
	if st.MergedDiag != n {
		t.Errorf("merged diag = %d, want %d", st.MergedDiag, n)
	}
	// And the merged kernel must still be correct.
	want := evolveDirect(t, c)
	got := mustState(t, n)
	if err := pl.Execute(got, 2); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDelta(want, got); d > 1e-12 {
		t.Errorf("merged diagonal drifted: %v", d)
	}
}

// TestCompileRepeatedCPhaseCollapses checks the no-table fast path: equal
// support controlled phases multiply in place.
func TestCompileRepeatedCPhaseCollapses(t *testing.T) {
	c := circuit.New(4, 0)
	c.CPhase(0.3, 1, 2).CPhase(0.4, 1, 2).CZGate(1, 2)
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Stats().Kernels; got != 1 {
		t.Errorf("kernels = %d, want 1", got)
	}
	want := evolveDirect(t, c)
	got := mustState(t, 4)
	if err := pl.Execute(got, 1); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDelta(want, got); d > 1e-12 {
		t.Errorf("collapsed phases drifted: %v", d)
	}
}

// TestCompileFuses2QChains checks the dense two-qubit path: a CX/CZ/CX
// chain on one pair with single-qubit gates sandwiched on both operands
// compiles to a single 4×4 kernel, with every source gate counted in
// Fused2Q.
func TestCompileFuses2QChains(t *testing.T) {
	c := circuit.New(3, 0)
	c.RY(0.3, 0).RY(0.5, 1) // both fold into the CX below
	c.CX(0, 1)
	c.RZ(0.7, 0) // folds into the dense kernel
	c.CZGate(0, 1)
	c.CX(1, 0)
	c.SXGate(1) // still folds
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Kernels != 1 {
		t.Errorf("kernels = %d, want 1 dense 4×4; stats %+v", st.Kernels, st)
	}
	if st.Fused2Q != 6 {
		t.Errorf("fused 2q = %d, want 6 (all gates but the first CX)", st.Fused2Q)
	}
	want := evolveDirect(t, c)
	got := mustState(t, 3)
	if err := pl.Execute(got, 1); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDelta(want, got); d > 1e-12 {
		t.Errorf("dense chain drifted: %v", d)
	}
}

// TestCompileLoneCXStaysSpecialized locks in the cost model: a CX with
// nothing to fold must keep its half-state subspace-exchange form rather
// than becoming a full-state dense sweep.
func TestCompileLoneCXStaysSpecialized(t *testing.T) {
	c := circuit.New(4, 0)
	c.H(2) // disjoint qubit: commutes past, must not trigger dense form
	c.CX(0, 1)
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Fused2Q != 0 {
		t.Errorf("fused 2q = %d, want 0 for a lone CX", st.Fused2Q)
	}
	if st.Kernels != 2 {
		t.Errorf("kernels = %d, want 2", st.Kernels)
	}
}

// TestCompileParityCXSandwich is the acceptance parity suite for the 4×4
// path: brickwork CX ladders with single-qubit gates sandwiched between
// them, checked against the direct per-gate engine at 1e-9 across shard
// counts {1, 4, GOMAXPROCS} — including high qubit pairs that exercise the
// cache-blocked sweep order.
func TestCompileParityCXSandwich(t *testing.T) {
	shardCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, n := range []int{2, 5, 9, 12} {
		c := cxBrickworkCircuit(n, 3)
		// Append a chain on the two highest qubits so n ≥ 8 exercises
		// sweep2QBlocked (lower pair stride ≥ blockedStrideMin).
		if n >= 8 {
			c.RY(0.4, n-2).CX(n-2, n-1).RZ(0.9, n-1).CX(n-2, n-1)
		}
		pl, err := Compile(c)
		if err != nil {
			t.Fatalf("n=%d: compile: %v", n, err)
		}
		if pl.Stats().Fused2Q == 0 {
			t.Errorf("n=%d: no two-qubit fusion on a CX-sandwich circuit; stats %+v", n, pl.Stats())
		}
		want := evolveDirect(t, c)
		for _, shards := range shardCounts {
			st := mustState(t, n)
			if err := pl.Execute(st, shards); err != nil {
				t.Fatalf("n=%d shards=%d: %v", n, shards, err)
			}
			if d := maxAmpDelta(want, st); d > 1e-9 {
				t.Errorf("n=%d shards=%d: max amplitude delta %v", n, shards, d)
			}
		}
	}
}

// TestCompileParityCXHeavyRandom stresses the dense path with random
// CX/SWAP-heavy circuits (two-qubit gates dominate the mix, with 1Q gates
// and diagonals interleaved) across 2–12 qubits.
func TestCompileParityCXHeavyRandom(t *testing.T) {
	shardCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	oneQ := []gates.Name{gates.H, gates.SX, gates.RY, gates.RZ, gates.T}
	for n := 2; n <= 12; n += 2 {
		for trial := 0; trial < 3; trial++ {
			r := rand.New(rand.NewSource(int64(7000*n + trial)))
			c := circuit.New(n, 0)
			for i := 0; i < 60; i++ {
				switch roll := r.Intn(10); {
				case roll < 6 && n >= 2: // two-qubit gate, often same-pair chains
					a, b := r.Intn(n), r.Intn(n)
					for b == a {
						b = r.Intn(n)
					}
					switch r.Intn(4) {
					case 0:
						c.CX(a, b)
					case 1:
						c.Swap(a, b)
					case 2:
						c.CZGate(a, b)
					default:
						c.CPhase(r.Float64()*4-2, a, b)
					}
				case roll < 9:
					name := oneQ[r.Intn(len(oneQ))]
					info, _ := gates.Lookup(name)
					var params []float64
					if info.Params == 1 {
						params = []float64{r.Float64()*4 - 2}
					}
					c.Gate(name, []int{r.Intn(n)}, params...)
				default: // pair-local diagonal, folds into dense kernels
					q := r.Intn(n)
					phases := []complex128{1, cmplx.Exp(complex(0, r.Float64()*2))}
					if err := c.Diagonal([]int{q}, phases); err != nil {
						panic(err)
					}
				}
			}
			pl, err := Compile(c)
			if err != nil {
				t.Fatalf("n=%d trial=%d: compile: %v", n, trial, err)
			}
			want := evolveDirect(t, c)
			for _, shards := range shardCounts {
				st := mustState(t, n)
				if err := pl.Execute(st, shards); err != nil {
					t.Fatalf("n=%d trial=%d shards=%d: %v", n, trial, shards, err)
				}
				if d := maxAmpDelta(want, st); d > 1e-9 {
					t.Errorf("n=%d trial=%d shards=%d: max amplitude delta %v\n%s",
						n, trial, shards, d, c)
				}
			}
		}
	}
}

// monomialCircuit builds a circuit whose two-qubit chains are pure
// permutation×phase: CX/CZ/SWAP/CP(π-multiples are unnecessary — any CP
// is diagonal) chains on a few pairs, interleaved with phase-type and
// permutation-type single-qubit gates (X, Y, Z, S, Sdg, T, Tdg). Every
// dense 4×4 kernel such a circuit compiles to must finalize monomial.
func monomialCircuit(r *rand.Rand, n, depth int) *circuit.Circuit {
	c := circuit.New(n, 0)
	oneQ := []gates.Name{gates.X, gates.Y, gates.Z, gates.S, gates.Sdg, gates.T, gates.Tdg}
	for i := 0; i < depth; i++ {
		switch r.Intn(5) {
		case 0:
			c.Gate(oneQ[r.Intn(len(oneQ))], []int{r.Intn(n)})
		default:
			qs := r.Perm(n)[:2]
			switch r.Intn(4) {
			case 0:
				c.CX(qs[0], qs[1])
			case 1:
				c.CZGate(qs[0], qs[1])
			case 2:
				c.CPhase(r.Float64()*4*math.Pi-2*math.Pi, qs[0], qs[1])
			default:
				c.Swap(qs[0], qs[1])
			}
		}
	}
	return c
}

// TestCompileMonomialStats checks the fast-path detection: a CX·CZ·CX
// chain on one pair fuses into a dense 4×4 that finalizes as monomial,
// while folding in a Hadamard (a genuinely dense 1Q gate) keeps the
// kernel on the dense sweep.
func TestCompileMonomialStats(t *testing.T) {
	c := circuit.New(3, 0)
	c.CX(0, 1)
	c.CZGate(0, 1)
	c.CX(0, 1)
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats().Fused2Q == 0 {
		t.Fatalf("chain did not fuse: %+v", pl.Stats())
	}
	if pl.Stats().Monomial2Q != 1 {
		t.Fatalf("CX·CZ·CX kernel not detected monomial: %+v", pl.Stats())
	}

	c2 := circuit.New(3, 0)
	c2.CX(0, 1)
	c2.H(0)
	c2.CX(0, 1)
	pl2, err := Compile(c2)
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Stats().Monomial2Q != 0 {
		t.Fatalf("H-bearing kernel wrongly detected monomial: %+v", pl2.Stats())
	}
}

// TestCompileParityMonomial is the parity suite for the monomial sweep:
// permutation×phase circuits on 2–12 qubits must agree with the direct
// per-gate path at 1e-9 across shard counts, and the fast path must
// actually be exercised.
func TestCompileParityMonomial(t *testing.T) {
	shardCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	sawMono := false
	for n := 2; n <= 12; n += 2 {
		for trial := 0; trial < 4; trial++ {
			r := rand.New(rand.NewSource(int64(7000*n + trial)))
			c := monomialCircuit(r, n, 20+r.Intn(30))
			want := evolveDirect(t, c)
			pl, err := Compile(c)
			if err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
			if pl.Stats().Monomial2Q > 0 {
				sawMono = true
			}
			for _, shards := range shardCounts {
				st := mustState(t, n)
				if err := pl.Execute(st, shards); err != nil {
					t.Fatalf("n=%d trial=%d shards=%d: %v", n, trial, shards, err)
				}
				if d := maxAmpDelta(want, st); d > 1e-9 {
					t.Errorf("n=%d trial=%d shards=%d: max amplitude delta %v\n%s", n, trial, shards, d, c)
				}
			}
		}
	}
	if !sawMono {
		t.Fatal("no trial produced a monomial kernel; the fast path went untested")
	}
}

// TestCompileParityMonomialBlocked pins the cache-blocked monomial sweep:
// a chain on a high qubit pair (lower-qubit stride ≥ blockedStrideMin)
// must match the direct path.
func TestCompileParityMonomialBlocked(t *testing.T) {
	const n = 14
	c := circuit.New(n, 0)
	// Spread amplitude across the low qubits only: a Hadamard on 12 or 13
	// would fold into the pair kernel and (rightly) disqualify the
	// monomial form. X/T on the pair keep it permutation×phase.
	for q := 0; q < 12; q++ {
		c.H(q)
		c.T(q)
	}
	c.X(12)
	c.T(13)
	c.X(13)
	c.CX(12, 13)
	c.CZGate(12, 13)
	c.Swap(12, 13)
	c.S(12)
	c.CX(13, 12)
	want := evolveDirect(t, c)
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats().Monomial2Q == 0 {
		t.Fatalf("high-pair chain not monomial: %+v", pl.Stats())
	}
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		st := mustState(t, n)
		if err := pl.Execute(st, shards); err != nil {
			t.Fatal(err)
		}
		if d := maxAmpDelta(want, st); d > 1e-9 {
			t.Errorf("shards=%d: max amplitude delta %v", shards, d)
		}
	}
}

// TestCompileRejectsMidCircuitMeasure mirrors Evolve's contract.
func TestCompileRejectsMidCircuitMeasure(t *testing.T) {
	c := circuit.New(2, 2)
	c.H(0).Measure(0, 0)
	c.X(1)
	if _, err := Compile(c); err == nil {
		t.Error("mid-circuit measurement compiled")
	}
}

// TestPlanReuseAcrossStates runs one compiled plan on several fresh
// states concurrently — Plans must be immutable after Compile.
func TestPlanReuseAcrossStates(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	c := randomCircuit(r, 8, 40)
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	want := evolveDirect(t, c)
	done := make(chan float64, 4)
	for g := 0; g < 4; g++ {
		go func(shards int) {
			st, _ := NewState(8)
			if err := pl.Execute(st, shards); err != nil {
				done <- math.Inf(1)
				return
			}
			done <- maxAmpDelta(want, st)
		}(1 + g%3)
	}
	for g := 0; g < 4; g++ {
		if d := <-done; d > 1e-9 {
			t.Errorf("concurrent plan reuse drifted: %v", d)
		}
	}
}

// TestRunCountsIdenticalAcrossShards locks in the scheduling/result
// separation the jobs cache relies on: the shard grant must never change
// sampled counts, bit for bit. The CDF builds in fixed-size blocks, so
// its float association is independent of the shard count; the state is
// large enough to span several blocks and shards.
func TestRunCountsIdenticalAcrossShards(t *testing.T) {
	n := 13 // 8192 amplitudes = two CDF blocks, above the parallel threshold
	c := circuit.New(n, n)
	for q := 0; q < n; q++ {
		c.H(q)
		c.RZ(0.1*float64(q+1), q)
	}
	for q := 0; q < n-1; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < n; q++ {
		c.RY(0.07*float64(q+1), q)
	}
	c.MeasureAll()
	var want Counts
	for _, shards := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		res, err := Run(c, Options{Shots: 3000, Seed: 11, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if want == nil {
			want = res.Counts
			continue
		}
		if len(res.Counts) != len(want) {
			t.Fatalf("shards=%d: %d outcomes, want %d", shards, len(res.Counts), len(want))
		}
		for k, v := range want {
			if res.Counts[k] != v {
				t.Fatalf("shards=%d: count[%d] = %d, want %d", shards, k, res.Counts[k], v)
			}
		}
	}
}

// TestRunNoisyCountsIdenticalAcrossShards does the same for the
// trajectory engine: the grant splits shots across workers, but each shot
// owns a serially pre-derived RNG stream, so counts cannot depend on the
// split.
func TestRunNoisyCountsIdenticalAcrossShards(t *testing.T) {
	c := circuit.New(4, 4)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	noise := NoiseModel{Prob1Q: 0.01, Prob2Q: 0.05, ReadoutFlip: 0.02}
	var want Counts
	for _, shards := range []int{1, 2, 5, runtime.GOMAXPROCS(0)} {
		res, err := RunNoisy(c, noise, Options{Shots: 800, Seed: 21, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if want == nil {
			want = res.Counts
			continue
		}
		if len(res.Counts) != len(want) {
			t.Fatalf("shards=%d: %d outcomes, want %d", shards, len(res.Counts), len(want))
		}
		for k, v := range want {
			if res.Counts[k] != v {
				t.Fatalf("shards=%d: count[%d] = %d, want %d", shards, k, res.Counts[k], v)
			}
		}
	}
}

// TestScratchReuseAcrossCalls checks that repeated permute sweeps on one
// state do not allocate a fresh 2^n staging copy per execution.
func TestScratchReuseAcrossCalls(t *testing.T) {
	st := mustState(t, 10)
	c := circuit.New(10, 0)
	if err := c.Permute([]int{1, 4}, []uint64{2, 3, 1, 0}); err != nil {
		t.Fatal(err)
	}
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Execute(st, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := pl.Execute(st, 1); err != nil {
			t.Fatal(err)
		}
	})
	// A few small fixed allocations remain (the pool, two sweep closures,
	// the flight-recorder detail); the 2^n scratch copy must not.
	if allocs > 6 {
		t.Errorf("executing a permute plan allocates %.1f objects per call; scratch not reused", allocs)
	}
}

// TestCompileRejectsBadDiagonalTable: a diagonal whose table is not 2^k
// long is a compile error, alone or where it would merge into an earlier
// diagonal, not an index panic. Only circuit.Append checks the length and
// Instrs is exported.
func TestCompileRejectsBadDiagonalTable(t *testing.T) {
	for _, phases := range [][]complex128{{1}, {1, 1i, -1}} {
		bad := circuit.Instruction{Op: circuit.OpDiagonal, Qubits: []int{0, 1}, Phases: phases}
		lone := circuit.New(3, 0)
		lone.Instrs = append(lone.Instrs, bad)
		merging := circuit.New(3, 0)
		if err := merging.Diagonal([]int{1, 2}, []complex128{1, 1i, -1, -1i}); err != nil {
			t.Fatal(err)
		}
		merging.Instrs = append(merging.Instrs, bad)
		for name, c := range map[string]*circuit.Circuit{"lone": lone, "merging": merging} {
			if _, err := Compile(c); err == nil || !strings.Contains(err.Error(), "diagonal table size") {
				t.Errorf("%s table of %d: Compile returned %v", name, len(phases), err)
			}
			if _, err := Run(c, Options{Shots: 1}); err == nil {
				t.Errorf("%s table of %d: Run accepted it", name, len(phases))
			}
		}
	}
}
