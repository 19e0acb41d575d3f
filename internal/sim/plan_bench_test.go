package sim

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/circuit"
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

// monomialChainCircuit builds the monomial-heavy workload: brickwork
// layers whose pair kernels fuse from pure CX/CZ/SWAP chains plus
// phase-type single-qubit gates, so every dense 4×4 finalizes as
// permutation×phase and executes on the 4-multiply monomial sweep. An
// opening H layer spreads amplitude so the sweeps move real weight.
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

// BenchmarkMonomialEvolve20 runs the monomial-heavy circuit through the
// compiled plan — the acceptance benchmark for the permutation×phase
// fast path (4 complex multiplies per quadruple instead of 16×mul+12×add).
func BenchmarkMonomialEvolve20(b *testing.B) {
	c := monomialChainCircuit(20, 4)
	pl, err := Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	if pl.Stats().Monomial2Q == 0 {
		b.Fatalf("benchmark circuit produced no monomial kernels: %+v", pl.Stats())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evolve(c); err != nil {
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
	runner, err := NewRunner(st.NumQubits(), 0)
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
	runner, err := NewRunner(st.NumQubits(), 0)
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
