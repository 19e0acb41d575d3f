package repro

// Micro-benchmarks for the hot substrates: kernel sweeps, sampling,
// annealing, transpilation, decoding, schema validation and embedding.
// The paper's quantities are asserted, not timed, in paper_test.go; the
// serving path is measured by benchmark/. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// Absolute timings depend on the host.

import (
	"testing"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/circuit"
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/schemas"
	"repro/internal/sim"
	"repro/internal/transpile"
)

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

// BenchmarkDecodeCounts measures schema-driven decoding. "phase" decodes
// 1024 outcomes of a 10-qubit AS_PHASE register; "ising_vars12" is what a
// served 12-qubit Max-Cut pays per gate job: about 720 distinct outcomes
// of 1024 shots on an AS_BOOL ising_vars register, decoded and then put
// in result order by Sort.
func BenchmarkDecodeCounts(b *testing.B) {
	b.Run("phase", func(b *testing.B) {
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
	})
	b.Run("ising_vars12", func(b *testing.B) {
		reg := qdt.NewIsingVars("ising_vars", "s", 12)
		schema := qop.DefaultResultSchema(reg.ID, reg.Width, "AS_BOOL", "LSB_0")
		counts := map[uint64]int{}
		for k := uint64(0); len(counts) < 720; k++ {
			counts[k*2654435761%(1<<12)] = 1 + int(k%5)/3
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entries, err := result.DecodeCounts(counts, schema, reg)
			if err != nil {
				b.Fatal(err)
			}
			(&result.Result{Entries: entries}).Sort()
		}
	})
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
