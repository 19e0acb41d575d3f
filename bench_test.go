package repro

// One benchmark per experiment (E1–E11, as cmd/qmlbench numbers them),
// plus micro-benchmarks for the hot substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute timings depend on the host.

import (
	"testing"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/comm"
	"repro/internal/ctxdesc"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qec"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/runtime"
	"repro/internal/schemas"
	"repro/internal/sim"
	"repro/internal/transpile"
)

const (
	benchGamma = 0.3926990817
	benchBeta  = 1.1780972451
)

func gateMaxCutBundle(b *testing.B, samples int) *bundle.Bundle {
	b.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{benchGamma}, []float64{benchBeta})
	if err != nil {
		b.Fatal(err)
	}
	ctx := ctxdesc.NewGate("gate.aer_simulator", samples, 42)
	ctx.Exec.Target = &ctxdesc.Target{
		BasisGates:  []string{"sx", "rz", "cx"},
		CouplingMap: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	ctx.Exec.Options = map[string]any{"optimization_level": 2}
	bd, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		b.Fatal(err)
	}
	return bd
}

func annealMaxCutBundle(b *testing.B, reads int) *bundle.Bundle {
	b.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Cycle(4)))
	if err != nil {
		b.Fatal(err)
	}
	bd, err := bundle.New([]*qdt.DataType{reg}, qop.Sequence{op}, ctxdesc.NewAnneal("anneal.neal", reads, 42))
	if err != nil {
		b.Fatal(err)
	}
	return bd
}

// BenchmarkE1_MaxCutQAOAGatePath regenerates the §5 gate path: the full
// pipeline (validate → lower → transpile under the ring target → simulate
// 4096 shots → decode).
func BenchmarkE1_MaxCutQAOAGatePath(b *testing.B) {
	bd := gateMaxCutBundle(b, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Submit(bd, runtime.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_MaxCutAnnealPath regenerates the §5 anneal path with
// num_reads = 1000.
func BenchmarkE2_MaxCutAnnealPath(b *testing.B) {
	bd := annealMaxCutBundle(b, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Submit(bd, runtime.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_ExpectedCutExact computes the exact QAOA expected cut (the
// §5 3.0–3.2 claim) without sampling.
func BenchmarkE3_ExpectedCutExact(b *testing.B) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	g := graph.Cycle(4)
	seq, err := algolib.BuildQAOA(reg, g, []float64{benchGamma}, []float64{benchBeta})
	if err != nil {
		b.Fatal(err)
	}
	low, err := algolib.Lower(seq, algolib.Registers{"ising_vars": reg})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := sim.Evolve(low.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		cut := st.ExpectationDiagonal(func(k uint64) float64 { return g.CutValueBits(k) })
		if cut < 2.9 {
			b.Fatalf("expected cut %v", cut)
		}
	}
}

// BenchmarkE4_QFT10 regenerates the Listing-1 motivational example: a
// 10-qubit QFT with 10000 shots.
func BenchmarkE4_QFT10(b *testing.B) {
	reg := qdt.NewPhaseRegister("reg_phase", "phase", 10)
	qft, err := algolib.NewQFT(reg, 0, true, false)
	if err != nil {
		b.Fatal(err)
	}
	bd, err := bundle.New([]*qdt.DataType{reg},
		qop.Sequence{qft, algolib.NewMeasurement(reg)},
		ctxdesc.NewGate("gate.aer_simulator", 10000, 42))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Submit(bd, runtime.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_QFTCostHint regenerates the Listing-3 cost-hint check:
// estimator plus realized template counts.
func BenchmarkE5_QFTCostHint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hint := algolib.EstimateQFTCost(10, 0, true)
		if hint.TwoQ != 45 || hint.Depth != 100 {
			b.Fatalf("hint %+v", hint)
		}
		c, err := algolib.QFTCircuit(10, 0, true, false)
		if err != nil {
			b.Fatal(err)
		}
		if c.TwoQubitCount() != 50 { // 45 cp + 5 swap
			b.Fatalf("twoq %d", c.TwoQubitCount())
		}
	}
}

// BenchmarkE6_RoutingOverhead regenerates the Listing-4 routing
// comparison: QFT(10) under the linear coupling map.
func BenchmarkE6_RoutingOverhead(b *testing.B) {
	circ, err := algolib.QFTCircuit(10, 0, true, false)
	if err != nil {
		b.Fatal(err)
	}
	var linear [][2]int
	for i := 0; i < 9; i++ {
		linear = append(linear, [2]int{i, i + 1})
	}
	opts := transpile.Options{
		BasisGates:        []string{"sx", "rz", "cx"},
		CouplingMap:       linear,
		OptimizationLevel: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := transpile.Transpile(circ, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.SwapsInserted == 0 {
			b.Fatal("no swaps on the linear chain")
		}
	}
}

// BenchmarkE7_QECOverhead regenerates the Listing-5 QEC table: overhead
// estimates across distances plus a Monte Carlo decode batch.
func BenchmarkE7_QECOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range []int{3, 5, 7, 9, 11} {
			pol := &ctxdesc.QEC{CodeFamily: "surface", Distance: d, PhysErrorRate: 1e-3}
			if _, err := qec.Estimate(pol, 4); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := qec.SimulateRepetition(5, 0.05, 10000, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_DistributedQFT regenerates the communication-volume sweep.
func BenchmarkE8_DistributedQFT(b *testing.B) {
	basis := []string{"sx", "rz", "cx"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 8, 12} {
			circ, err := algolib.QFTCircuit(n, 0, true, false)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := transpile.Transpile(circ, transpile.Options{BasisGates: basis, OptimizationLevel: 1})
			if err != nil {
				b.Fatal(err)
			}
			part, err := comm.BlockPartition(n, 2, (n+1)/2)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := comm.Analyze(tr.Circuit, part); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE9_ContextSwap regenerates the portability check: repackaging
// one intent under different contexts and fingerprinting.
func BenchmarkE9_ContextSwap(b *testing.B) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Cycle(4)))
	if err != nil {
		b.Fatal(err)
	}
	intent := qop.Sequence{op}
	ctxA := ctxdesc.NewAnneal("anneal.sa", 100, 1)
	ctxB := ctxdesc.NewGate("gate.statevector", 100, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ba, err := bundle.New([]*qdt.DataType{reg}, intent, ctxA)
		if err != nil {
			b.Fatal(err)
		}
		bb := ba.WithContext(ctxB)
		fa, _ := ba.Fingerprint()
		fb, _ := bb.Fingerprint()
		if fa != fb {
			b.Fatal("fingerprint changed with context")
		}
	}
}

// BenchmarkE10_QAOADepthSweep regenerates one point of the depth
// ablation: a p=2 evaluation.
func BenchmarkE10_QAOADepthSweep(b *testing.B) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	g := graph.Cycle(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seq, err := algolib.BuildQAOA(reg, g, []float64{0.4, 0.2}, []float64{0.3, 0.6})
		if err != nil {
			b.Fatal(err)
		}
		low, err := algolib.Lower(seq, algolib.Registers{"ising_vars": reg})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Evolve(low.Circuit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_AnnealerAblation regenerates one ablation row: SA at 100
// sweeps on the n=12 instance, against the tabu baseline.
func BenchmarkE11_AnnealerAblation(b *testing.B) {
	m := ising.FromMaxCut(graph.ErdosRenyi(12, 0.5, 7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := anneal.SampleModel(m, anneal.Params{NumReads: 50, Sweeps: 100, Seed: 42}); err != nil {
			b.Fatal(err)
		}
		if _, err := anneal.TabuSearch(m, 50, 0, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- substrate micro-benchmarks ----

// oneGatePlans18 precompiles, for every qubit q of an 18-qubit register,
// the one-instruction circuit build(c, q) appends: the per-gate baselines
// below time a single kernel sweep, not its compile.
func oneGatePlans18(b *testing.B, build func(c *circuit.Circuit, q int)) []*sim.Plan {
	b.Helper()
	plans := make([]*sim.Plan, 18)
	for q := range plans {
		c := circuit.New(18, 0)
		build(c, q)
		pl, err := sim.Compile(c)
		if err != nil {
			b.Fatal(err)
		}
		plans[q] = pl
	}
	return plans
}

// BenchmarkSimHadamard18 measures one-qubit gate bandwidth on a 2^18
// statevector (the sharded sweep path).
func BenchmarkSimHadamard18(b *testing.B) {
	st, err := sim.NewState(18)
	if err != nil {
		b.Fatal(err)
	}
	plans := oneGatePlans18(b, func(c *circuit.Circuit, q int) { c.H(q) })
	b.ReportAllocs()
	b.SetBytes(int64(st.Dim() * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plans[i%18].Execute(st, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimCX18 measures two-qubit gate bandwidth.
func BenchmarkSimCX18(b *testing.B) {
	st, err := sim.NewState(18)
	if err != nil {
		b.Fatal(err)
	}
	plans := oneGatePlans18(b, func(c *circuit.Circuit, q int) { c.CX(q, (q+1)%18) })
	b.ReportAllocs()
	b.SetBytes(int64(st.Dim() * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plans[i%18].Execute(st, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSampling measures Born sampling for 4096 shots on 12 qubits.
func BenchmarkSimSampling(b *testing.B) {
	c := circuit.New(12, 12)
	for q := 0; q < 12; q++ {
		c.H(q)
	}
	c.MeasureAll()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, sim.Options{Shots: 4096, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountsMostFrequent guards the O(n) argmax over observed
// outcomes: a previous implementation sorted all keys on every call
// (O(n log n) plus an allocation), which this benchmark would regress on.
func BenchmarkCountsMostFrequent(b *testing.B) {
	cnt := sim.Counts{}
	for k := uint64(0); k < 1<<16; k++ {
		cnt[k] = int(k % 97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k, n, ok := cnt.MostFrequent(); !ok || n != 96 || k != 96 {
			b.Fatalf("MostFrequent = %d, %d, %v", k, n, ok)
		}
	}
}

// BenchmarkSASweeps measures raw Metropolis throughput: one read of 1000
// sweeps on a 64-edge instance.
func BenchmarkSASweeps(b *testing.B) {
	m := ising.FromMaxCut(graph.ErdosRenyi(16, 0.5, 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := anneal.SampleModel(m, anneal.Params{NumReads: 1, Sweeps: 1000, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranspileQFT measures the full pass pipeline on QFT(10).
func BenchmarkTranspileQFT(b *testing.B) {
	circ, err := algolib.QFTCircuit(10, 0, true, false)
	if err != nil {
		b.Fatal(err)
	}
	opts := transpile.Options{BasisGates: []string{"sx", "rz", "cx"}, OptimizationLevel: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transpile.Transpile(circ, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeCounts measures schema-driven decoding of 1024 outcomes.
func BenchmarkDecodeCounts(b *testing.B) {
	reg := qdt.NewPhaseRegister("reg_phase", "phase", 10)
	schema := qop.DefaultResultSchema(reg.ID, reg.Width, "AS_PHASE", "LSB_0")
	counts := map[uint64]int{}
	for k := uint64(0); k < 1024; k++ {
		counts[k] = int(k%17) + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := result.DecodeCounts(counts, schema, reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemaValidate measures JSON Schema validation of a Listing-4
// context document.
func BenchmarkSchemaValidate(b *testing.B) {
	doc := []byte(`{
		"$schema": "ctx.schema.json",
		"exec": {"engine": "gate.aer_simulator", "samples": 4096, "seed": 42,
			"target": {"basis_gates": ["sx","rz","cx"],
				"coupling_map": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9]]},
			"options": {"optimization_level": 2}}}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := schemas.Validate("ctx.schema.json", doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinorEmbedding measures the K4→Chimera embedding heuristic.
func BenchmarkMinorEmbedding(b *testing.B) {
	m := ising.FromMaxCut(graph.Complete(4))
	hw, err := embed.Chimera(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := embed.Find(m, hw); err != nil {
			b.Fatal(err)
		}
	}
}
