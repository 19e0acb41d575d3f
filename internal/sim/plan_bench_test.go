package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
)

// deepCircuit builds the acceptance workload: layers of rz·sx·rz on every
// qubit followed by a CZ ring — the shape a transpiled variational circuit
// takes in the {sx, rz, cx/cz} basis. Three layers on 20 qubits exceed
// depth 64 (each CZ ring alone contributes a depth-n chain).
func deepCircuit(n, layers int) *circuit.Circuit {
	c := circuit.New(n, n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RZ(0.17*float64(l*n+q+1), q)
		}
		for q := 0; q < n; q++ {
			c.SXGate(q)
		}
		for q := 0; q < n; q++ {
			c.RZ(0.31*float64(l*n+q+1), q)
		}
		for q := 0; q < n; q++ {
			c.CZGate(q, (q+1)%n)
		}
	}
	return c
}

// cxBrickworkCircuit builds the CX-heavy acceptance workload: brickwork
// layers of ry rotations, a CX ladder over even pairs, rz rotations, and a
// CX ladder over odd pairs — the entangler-sandwich shape of
// hardware-efficient ansätze and of the QFT/Grover arithmetic blocks. Every
// CX has single-qubit gates touching its operands on both sides, so the
// two-qubit dense fusion pass can fold 3–5 source gates into each 4×4
// kernel; without it every CX is its own bandwidth-bound sweep.
func cxBrickworkCircuit(n, layers int) *circuit.Circuit {
	c := circuit.New(n, 0)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RY(0.13*float64(l*n+q+1), q)
		}
		for q := 0; q+1 < n; q += 2 {
			c.CX(q, q+1)
		}
		for q := 0; q < n; q++ {
			c.RZ(0.29*float64(l*n+q+1), q)
		}
		for q := 1; q+1 < n; q += 2 {
			c.CX(q, q+1)
		}
	}
	return c
}

// BenchmarkFusedEvolveCX20 runs the CX-heavy brickwork circuit through the
// compiled plan path — the acceptance benchmark for the two-qubit dense
// fusion pass (≥1.3× over the PR 2 plan number on this circuit).
func BenchmarkFusedEvolveCX20(b *testing.B) {
	c := cxBrickworkCircuit(20, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evolve(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerGateEvolveCX20 is the per-gate reference on the same
// CX-heavy circuit.
func BenchmarkPerGateEvolveCX20(b *testing.B) {
	c := cxBrickworkCircuit(20, 4)
	b.ReportAllocs()
	benchEvolveDirect(b, c)
}

// benchEvolveDirect is the seed engine's shape: one sweep per gate, no
// fusion — the unfused compile (included in the measured loop, as in the
// fused benchmarks) on an automatic shard count.
func benchEvolveDirect(b *testing.B, c *circuit.Circuit) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		st, err := NewState(c.NumQubits)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := compile(c, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := pl.Execute(st, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerGateEvolve20 is the baseline for the acceptance comparison:
// the deep 20-qubit circuit executed gate by gate.
func BenchmarkPerGateEvolve20(b *testing.B) {
	c := deepCircuit(20, 3)
	if d := c.Depth(); d < 64 {
		b.Fatalf("benchmark circuit depth %d < 64", d)
	}
	b.ReportAllocs()
	benchEvolveDirect(b, c)
}

// BenchmarkFusedEvolve20 executes the same circuit through the
// compile→fuse→shard engine (compilation included in the measured loop, as
// Run pays it too). The acceptance bar is ≥1.5× over
// BenchmarkPerGateEvolve20.
func BenchmarkFusedEvolve20(b *testing.B) {
	c := deepCircuit(20, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evolve(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedEvolve20Shards pins explicit shard counts to expose the
// scaling knob the serving layer drives.
func BenchmarkFusedEvolve20Shards(b *testing.B) {
	c := deepCircuit(20, 3)
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EvolveShards(c, shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// monomialChainCircuit builds the permutation-chain workload: brickwork
// layers whose pair kernels fuse from pure CX/CZ/SWAP chains plus
// phase-type single-qubit gates, so every pair kernel after the first
// layer is permutation × phase. An opening H layer spreads amplitude so
// the sweeps move real weight.
func monomialChainCircuit(n, layers int) *circuit.Circuit {
	c := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for l := 0; l < layers; l++ {
		for q := 0; q+1 < n; q += 2 {
			c.CX(q, q+1)
			c.CZGate(q, q+1)
			c.S(q)
			c.CX(q+1, q)
		}
		for q := 1; q+1 < n; q += 2 {
			c.Swap(q, q+1)
			c.CX(q, q+1)
			c.T(q + 1)
			c.CZGate(q, q+1)
		}
	}
	return c
}

// BenchmarkMonomialEvolve20 runs the permutation-chain circuit through
// the compiled plan. Its 76 kernels all sweep as dense 4×4s: the 10 of
// the first layer fold the opening H gates, and the 66 permutation ×
// phase chains after them are neither diagonal nor block-diagonal.
func BenchmarkMonomialEvolve20(b *testing.B) {
	c := monomialChainCircuit(20, 4)
	pl, err := Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	dense := 0
	for _, k := range pl.kernels {
		if k.kind == kGate2Q && k.form == pairDense {
			dense++
		}
	}
	if dense != 76 || len(pl.kernels) != 76 {
		b.Fatalf("benchmark circuit has %d kernels, %d of them dense 4×4, want 76 and 76: %+v", len(pl.kernels), dense, pl.Stats())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evolve(c); err != nil {
			b.Fatal(err)
		}
	}
}

// maxCutQAOA builds the circuit of a served Max-Cut QAOA job: H on every
// qubit, then p layers of CX·RZ·CX per edge and an RX on every qubit, and
// terminal measurements. The graph is G(n, edges) with unit weights and
// the angles are drawn from [0.2, 1.2), both from seed.
func maxCutQAOA(seed int64, n, edges, p int) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	type pair struct{ u, v int }
	var all []pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			all = append(all, pair{u, v})
		}
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	c := circuit.New(n, n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for l := 0; l < p; l++ {
		gamma, beta := 0.2+r.Float64(), 0.2+r.Float64()
		for _, e := range all[:edges] {
			c.CX(e.u, e.v).RZ(2*gamma, e.v).CX(e.u, e.v)
		}
		for q := 0; q < n; q++ {
			c.RX(2*beta, q)
		}
	}
	c.MeasureAll()
	return c
}

// BenchmarkQAOA20 runs one served 20-qubit QAOA job — p=2, 30 edges, 1024
// shots: compile, execute, sample — on the automatic shard count. About
// half of its dense pair kernels are a ZZ phase fused with an RX, which
// execute on the block-diagonal sweep.
func BenchmarkQAOA20(b *testing.B) {
	c := maxCutQAOA(1, 20, 30, 2)
	pl, err := Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	if pl.Stats().Block2Q == 0 {
		b.Fatalf("benchmark circuit produced no block kernels: %+v", pl.Stats())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, Options{Shots: 1024, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCDF20 isolates the sampling CDF build over the split
// planes on a spread-out 20-qubit state: two full passes over 2^20
// amplitudes on the shard pool, fixed-block summation order.
func BenchmarkBuildCDF20(b *testing.B) {
	c := deepCircuit(20, 1)
	st, err := Evolve(c)
	if err != nil {
		b.Fatal(err)
	}
	runner, err := newRunner(st.NumQubits(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, acc, _ := runner.buildCDF(st); acc <= 0 {
			b.Fatal("empty distribution")
		}
	}
}

// BenchmarkSamplingStage20 measures the full sampling stage as Run pays
// it — CDF build plus 4096 binary-search draws and register projections —
// on the same evolved 20-qubit state.
func BenchmarkSamplingStage20(b *testing.B) {
	c := deepCircuit(20, 1)
	c.MeasureAll()
	st, err := Evolve(c)
	if err != nil {
		b.Fatal(err)
	}
	mm := c.MeasureMap()
	qubits := make([]int, 0, len(mm))
	for q := range mm {
		qubits = append(qubits, q)
	}
	sort.Ints(qubits)
	runner, err := newRunner(st.NumQubits(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	const shots = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf, acc, lastPos := runner.buildCDF(st)
		r := rng.New(42)
		counts := Counts{}
		for shot := 0; shot < shots; shot++ {
			k := sampleCDF(cdf, lastPos, r.Float64()*acc)
			counts[projectRegister(k, qubits, mm, 0, nil)]++
		}
		if counts.TotalShots() != shots {
			b.Fatal("lost shots")
		}
	}
}

// BenchmarkCompileDeep20 isolates plan construction — it must stay
// negligible next to a single statevector sweep.
func BenchmarkCompileDeep20(b *testing.B) {
	c := deepCircuit(20, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNoisy measures the trajectory engine at the grants the pool
// hands out: 8 qubits × 128 shots at grant 1 is the benchmark's noisy op
// (serve_mix, dispatch_mix), and grant 2 what a lone one gets on two
// cores; 12 × 128 shows what a shot costs once the state outweighs the
// bookkeeping; 16 × 16 is above parallelThreshold, where grant 2 must buy
// time and grant 1 must not fan out. noise=high draws errors early in
// nearly every shot, so almost no error-free prefix is shared: the case
// that prefix sharing cannot help and must not slow down much.
func BenchmarkRunNoisy(b *testing.B) {
	bench := NoiseModel{Prob1Q: 0.001, Prob2Q: 0.01, ReadoutFlip: 0.02}
	high := NoiseModel{Prob1Q: 0.05, Prob2Q: 0.1, ReadoutFlip: 0.02}
	for _, bc := range []struct {
		n, shots, grant int
		high            bool
	}{
		{8, 128, 1, false}, {8, 128, 2, false}, {8, 128, 1, true},
		{12, 128, 1, false}, {12, 128, 1, true},
		{16, 16, 1, false}, {16, 16, 2, false},
	} {
		c := goldenQAOA(bc.n)
		name, nm := fmt.Sprintf("q=%d/shots=%d/grant=%d", bc.n, bc.shots, bc.grant), bench
		if bc.high {
			name, nm = name+"/noise=high", high
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunNoisy(c, nm, Options{Shots: bc.shots, Seed: uint64(i), Shards: bc.grant}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// strideKernel builds one kernel of the named form on the pair (q, q+1) —
// a 2×2 on q alone for "2x2" — from unitary matrices, so that applying it
// over and over keeps the state's norm and never drifts into subnormals.
// The forms are the ones a served QAOA job's kernels take: a dense 2×2, a
// block-diagonal pair with the gate on the lower ("block-lo") or the
// higher ("block-hi") qubit, a dense 4×4 and a diagonal (the ZZ phase).
func strideKernel(form string, q int) (kernel, error) {
	u := gates.Mul2(mustUnitary1(gates.RX, 0.7), mustUnitary1(gates.RZ, 0.4))
	if form == "2x2" {
		return kernel{kind: kGate1Q, support: 1 << q, q: q, m: u, ms: u.Split()}, nil
	}
	v := gates.Mul2(mustUnitary1(gates.RX, 0.7), mustUnitary1(gates.RZ, -0.4))
	var blk gates.Matrix4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if r>>1 == c>>1 {
				blk[r][c] = [2]gates.Matrix2{u, v}[r>>1][r&1][c&1]
			}
		}
	}
	var m gates.Matrix4
	want := pairDense
	switch form {
	case "block-lo":
		m, want = blk, pairBlockLo
	case "block-hi":
		m, want = swapPair(blk), pairBlockHi
	case "dense":
		m = gates.Mul4(mat4CX(false), gates.Kron2(u, v))
	case "diag":
		for r := 0; r < 4; r++ {
			m[r][r] = cmplx.Exp(complex(0, 0.3+0.2*float64(r)))
		}
		want = pairDiag
	}
	k := kernel{kind: kGate2Q, support: 3 << q, q: q, q2: q + 1, m4: m}
	var st PlanStats
	k.finalize2Q(&st)
	if k.form != want {
		return k, fmt.Errorf("%s kernel finalized to form %d, want %d", form, k.form, want)
	}
	return k, nil
}

func mustUnitary1(n gates.Name, theta float64) gates.Matrix2 {
	m, err := gates.Unitary1(n, []float64{theta})
	if err != nil {
		panic(err)
	}
	return m
}

// BenchmarkKernelStrides reports what one kernel costs per amplitude of a
// 20-qubit state on one shard, for each sweep form of a served QAOA job
// and each lowest qubit in {0, 1, 2, 3, 5, 6, 12}: the low strides, where
// a sweep's contiguous runs are shorter than a vector or a cache line,
// against the strides where they are not. A form runs the same AVX body
// at every qubit, or with -tags purego the same Go loop: no form changes
// at a stride threshold. Each sub-benchmark reports ns/amp; compare a
// form across its qubits.
func BenchmarkKernelStrides(b *testing.B) {
	const n = 20
	st, err := NewState(n)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	scale := 1 / math.Sqrt(float64(2*st.Dim()))
	for i := range st.re {
		st.re[i], st.im[i] = scale*(2*r.Float64()-1), scale*(2*r.Float64()-1)
	}
	for _, form := range []string{"2x2", "block-lo", "block-hi", "dense", "diag"} {
		for _, q := range []int{0, 1, 2, 3, 5, 6, 12} {
			k, err := strideKernel(form, q)
			if err != nil {
				b.Fatal(err)
			}
			pl := &Plan{n: n, kernels: []kernel{k}}
			b.Run(fmt.Sprintf("%s/q=%d", form, q), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := pl.Execute(st, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Dim()), "ns/amp")
			})
		}
	}
}
