package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// symbolicQAOA builds a depth-p QAOA circuit over a weighted ring with
// symbolic layer angles: parameter 2l is layer l's gamma, 2l+1 its
// beta. It mirrors what algolib's parametric lowering emits — CX /
// RZ(2wγ) / CX per edge, RX(2β) per qubit — exercising the diag-fold
// and 1Q-fold recording paths.
func symbolicQAOA(n, p int) *circuit.Circuit {
	c := circuit.New(n, n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for layer := 0; layer < p; layer++ {
		gi, bi := 2*layer, 2*layer+1
		for q := 0; q < n; q++ {
			u, v := q, (q+1)%n
			w := 0.5 + 0.25*float64(q%3)
			c.CX(u, v)
			if err := c.GateRefs(gates.RZ, []int{v}, []float64{0}, []circuit.ParamRef{{Index: gi, Scale: 2 * w}}); err != nil {
				panic(err)
			}
			c.CX(u, v)
		}
		for q := 0; q < n; q++ {
			if err := c.GateRefs(gates.RX, []int{q}, []float64{0}, []circuit.ParamRef{{Index: bi, Scale: 2}}); err != nil {
				panic(err)
			}
		}
	}
	for q := 0; q < n; q++ {
		c.Measure(q, q)
	}
	return c
}

// randomSymbolicCircuit splices symbolic single-qubit rotations into a
// random mixed circuit so the parametric recording hits every fusion
// path: same-qubit 2×2 folds, folds into dense pair kernels, the
// promote path, the fuse2Q accumulation, and diagonal row scaling.
func randomSymbolicCircuit(r *rand.Rand, n, depth, nParams int) *circuit.Circuit {
	base := randomCircuit(r, n, depth)
	out := circuit.New(n, n)
	rots := []gates.Name{gates.RX, gates.RY, gates.RZ, gates.P}
	insert := func(idx int) {
		name := rots[r.Intn(len(rots))]
		scale := 0.1 + 2*r.Float64()
		if err := out.GateRefs(name, []int{r.Intn(n)}, []float64{0}, []circuit.ParamRef{{Index: idx, Scale: scale}}); err != nil {
			panic(err)
		}
	}
	instrs := base.Instrs
	// A leading Init must stay first: the state must still be |0…0⟩.
	if len(instrs) > 0 && instrs[0].Op == circuit.OpInit {
		if err := out.Append(instrs[0]); err != nil {
			panic(err)
		}
		instrs = instrs[1:]
	}
	// Guarantee every parameter index appears at least once.
	for idx := 0; idx < nParams; idx++ {
		insert(idx)
	}
	for _, ins := range instrs {
		if err := out.Append(ins); err != nil {
			panic(err)
		}
		if r.Intn(3) == 0 {
			insert(r.Intn(nParams))
		}
	}
	for q := 0; q < n; q++ {
		out.Measure(q, q)
	}
	return out
}

// bindParity asserts pp.Bind(v) executed through RunPlan yields counts
// bit-identical to the concrete path — Compile of c.BindValues(v) — at
// the given shard count, plus exact amplitude equality.
func bindParity(t *testing.T, c *circuit.Circuit, pp *ParamPlan, v []float64, shards int) {
	t.Helper()
	bound, err := c.BindValues(v)
	if err != nil {
		t.Fatalf("BindValues: %v", err)
	}
	opts := Options{Shots: 512, Seed: 42, Shards: shards}
	want, wantSt := runKept(t, bound, mustCompile(t, bound), opts)
	pl, err := pp.Bind(v)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	got, gotSt := runKept(t, c, pl, opts)
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("shards=%d: %d distinct outcomes, want %d", shards, len(got.Counts), len(want.Counts))
	}
	for k, n := range want.Counts {
		if got.Counts[k] != n {
			t.Fatalf("shards=%d: counts[%d]=%d, want %d", shards, k, got.Counts[k], n)
		}
	}
	for i := range wantSt.re {
		if gotSt.re[i] != wantSt.re[i] || gotSt.im[i] != wantSt.im[i] {
			t.Fatalf("shards=%d: amplitude %d differs: (%v,%v) vs (%v,%v)",
				shards, i, gotSt.re[i], gotSt.im[i], wantSt.re[i], wantSt.im[i])
		}
	}
}

func TestParamPlanQAOAParity(t *testing.T) {
	c := symbolicQAOA(6, 2)
	pp, err := CompileParametric(c)
	if err != nil {
		t.Fatal(err)
	}
	if pp.NumParams() != 4 {
		t.Fatalf("NumParams = %d, want 4", pp.NumParams())
	}
	points := [][]float64{
		{0.3, 0.7, 1.1, 0.2},
		{2.5, -0.4, 0.9, 3.0},
		{0, 0, 0, 0}, // gamma=beta=0: RX(0) flips the leaf diag class → fallback
		{math.Pi, math.Pi / 2, -math.Pi, 0.25},
	}
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, v := range points {
			bindParity(t, c, pp, v, shards)
		}
	}
	binds, fallbacks := pp.Binds()
	if fallbacks == 0 {
		t.Fatalf("degenerate point took the fast path (binds=%d fallbacks=0)", binds)
	}
	if fallbacks >= binds {
		t.Fatalf("every bind fell back (binds=%d fallbacks=%d)", binds, fallbacks)
	}
}

func TestParamPlanRandomParity(t *testing.T) {
	r := rand.New(rand.NewSource(907))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(4)
		nParams := 1 + r.Intn(3)
		c := randomSymbolicCircuit(r, n, 8+r.Intn(20), nParams)
		pp, err := CompileParametric(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for pt := 0; pt < 4; pt++ {
			v := make([]float64, pp.NumParams())
			for i := range v {
				v[i] = r.Float64()*4*math.Pi - 2*math.Pi
			}
			if pt == 3 {
				v[r.Intn(len(v))] = 0 // chance of a degenerate classification
			}
			bindParity(t, c, pp, v, 1+r.Intn(4))
		}
	}
}

// TestParamPlanBindInvariance pins the compile-once contract: fast-path
// binds share the template's structure — kernel count, kinds, supports,
// order, and all stats except the per-point Monomial2Q and Block2Q — and
// never recompile.
func TestParamPlanBindInvariance(t *testing.T) {
	c := symbolicQAOA(5, 2)
	pp, err := CompileParametric(c)
	if err != nil {
		t.Fatal(err)
	}
	before := CompileCount()
	var first *Plan
	for _, v := range [][]float64{{0.3, 0.7, 1.1, 0.2}, {1.9, 2.2, -0.8, 0.45}, {0.05, 3.1, 2.7, -1.3}} {
		pl, err := pp.Bind(v)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = pl
			continue
		}
		if len(pl.kernels) != len(first.kernels) {
			t.Fatalf("kernel count varies across binds: %d vs %d", len(pl.kernels), len(first.kernels))
		}
		for i := range pl.kernels {
			a, b := &pl.kernels[i], &first.kernels[i]
			if a.kind != b.kind || a.support != b.support || a.q != b.q || a.q2 != b.q2 {
				t.Fatalf("kernel %d structure varies across binds", i)
			}
		}
		sa, sb := pl.stats, first.stats
		sa.Monomial2Q, sb.Monomial2Q = 0, 0
		sa.Block2Q, sb.Block2Q = 0, 0
		if sa != sb {
			t.Fatalf("structural stats vary across binds: %+v vs %+v", sa, sb)
		}
	}
	if d := CompileCount() - before; d != 0 {
		t.Fatalf("fast-path binds recompiled %d times", d)
	}
	// Per-point Monomial2Q and Block2Q must match what a concrete compile
	// reports.
	v := []float64{0.3, 0.7, 1.1, 0.2}
	pl, err := pp.Bind(v)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := c.BindValues(v)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Compile(bound)
	if err != nil {
		t.Fatal(err)
	}
	if pl.stats != ref.stats {
		t.Fatalf("bound stats %+v, concrete compile stats %+v", pl.stats, ref.stats)
	}
}

func TestParamPlanErrors(t *testing.T) {
	if _, err := CompileParametric(circuit.New(2, 2)); err == nil {
		t.Fatal("CompileParametric accepted a concrete circuit")
	}
	c := symbolicQAOA(4, 1)
	if _, err := Compile(c); err == nil {
		t.Fatal("Compile accepted a symbolic circuit")
	}
	pp, err := CompileParametric(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Bind([]float64{1}); err == nil {
		t.Fatal("Bind accepted a short vector")
	}
}

// BenchmarkSweepBind20 compares deriving a 20-qubit QAOA point via
// ParamPlan.Bind against a full concrete recompile — the per-point cost
// a sweep saves.
func BenchmarkSweepBind20(b *testing.B) {
	c := symbolicQAOA(20, 2)
	pp, err := CompileParametric(c)
	if err != nil {
		b.Fatal(err)
	}
	v := []float64{0.3, 0.7, 1.1, 0.2}
	b.Run("bind", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pp.Bind(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bound, err := c.BindValues(v)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Compile(bound); err != nil {
				b.Fatal(err)
			}
		}
	})
}
