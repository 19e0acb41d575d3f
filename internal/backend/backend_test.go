package backend

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/sim"
)

// bestQAOAAngles grid-searches p=1 (γ, β) for the 4-cycle by exact
// expectation, mirroring what a variational outer loop would do.
func bestQAOAAngles(t *testing.T) (float64, float64, float64) {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	g := graph.Cycle(4)
	bestCut, bestG, bestB := -1.0, 0.0, 0.0
	for gi := 1; gi <= 12; gi++ {
		for bi := 1; bi <= 12; bi++ {
			gamma := float64(gi) * 0.13
			beta := float64(bi) * 0.13
			seq, err := algolib.BuildQAOA(reg, g, []float64{gamma}, []float64{beta})
			if err != nil {
				t.Fatal(err)
			}
			low, err := algolib.Lower(seq, algolib.Registers{"ising_vars": reg})
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Evolve(low.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			cut := st.ExpectationDiagonal(func(k uint64) float64 { return g.CutValueBits(k) })
			if cut > bestCut {
				bestCut, bestG, bestB = cut, gamma, beta
			}
		}
	}
	return bestG, bestB, bestCut
}

func gateMaxCutBundle(t *testing.T, gamma, beta float64, ctx *ctxdesc.Context) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{gamma}, []float64{beta})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGateBackendMaxCutQAOA(t *testing.T) {
	// E1/E3: the paper's gate path. QAOA p=1 at grid-optimal angles on
	// the Listing-4-style context (ring coupling map, 4096 samples,
	// seeded). Expected cut ≈ 3 and both optimal strings observed.
	gamma, beta, exact := bestQAOAAngles(t)
	if exact < 2.9 {
		t.Fatalf("grid-optimal exact expected cut %v < 2.9", exact)
	}
	ctx := ctxdesc.NewGate("gate.aer_simulator", 4096, 42)
	ctx.Exec.Target = &ctxdesc.Target{
		BasisGates:  []string{"sx", "rz", "cx"},
		CouplingMap: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	ctx.Exec.Options = map[string]any{"optimization_level": 2}
	b := gateMaxCutBundle(t, gamma, beta, ctx)

	be, err := Get("gate.aer_simulator")
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Execute(b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Cycle(4)
	// Expected cut from sampled counts.
	cut := 0.0
	total := 0
	seen := map[string]int{}
	for _, e := range res.Entries {
		cut += g.CutValueBits(e.Index) * float64(e.Count)
		total += e.Count
		seen[e.Bitstring] = e.Count
	}
	cut /= float64(total)
	if cut < 2.8 || cut > 3.4 {
		t.Errorf("sampled expected cut = %v, want within the paper's ≈3.0–3.2 band (±sampling)", cut)
	}
	if seen["1010"] == 0 || seen["0101"] == 0 {
		t.Errorf("optimal strings not both observed: %v", seen)
	}
	if _, ok := res.Meta["transpile"]; !ok {
		t.Error("transpile stats missing from meta")
	}
}

func TestGateBackendDeterministicSeed(t *testing.T) {
	gamma, beta := 0.65, 0.39
	ctx := ctxdesc.NewGate("gate.statevector", 512, 7)
	a, err := (&Gate{engine: "gate.statevector"}).Execute(gateMaxCutBundle(t, gamma, beta, ctx), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Gate{engine: "gate.statevector"}).Execute(gateMaxCutBundle(t, gamma, beta, ctx), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("same seed produced different outcome sets")
	}
	for i := range a.Entries {
		if a.Entries[i].Index != b.Entries[i].Index || a.Entries[i].Count != b.Entries[i].Count {
			t.Fatalf("same seed, entry %d differs", i)
		}
	}
}

func annealMaxCutBundle(t *testing.T, ctx *ctxdesc.Context) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	m := ising.FromMaxCut(graph.Cycle(4))
	op, err := algolib.NewIsingProblem(reg, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, qop.Sequence{op}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAnnealBackendMaxCut(t *testing.T) {
	// E2/E3: the paper's anneal path with num_reads = 1000. Both optimal
	// assignments dominate; energies are attached.
	ctx := ctxdesc.NewAnneal("anneal.neal", 1000, 42)
	be, err := Get("anneal.neal")
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Execute(annealMaxCutBundle(t, ctx), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range res.Entries {
		counts[e.Bitstring] += e.Count
		if !e.HasEnergy {
			t.Fatal("anneal entry missing energy")
		}
	}
	optimal := counts["1010"] + counts["0101"]
	if frac := float64(optimal) / 1000; frac < 0.9 {
		t.Errorf("optimal-cut fraction = %v, want > 0.9", frac)
	}
	top, err := res.Top()
	if err != nil {
		t.Fatal(err)
	}
	if top.Energy != -4 {
		t.Errorf("top energy = %v, want -4", top.Energy)
	}
}

func TestAnnealBackendWithEmbedding(t *testing.T) {
	ctx := ctxdesc.NewAnneal("anneal.sa", 300, 9)
	ctx.Anneal.Embed = true
	ctx.Anneal.UnitCells = 1
	ctx.Anneal.Sweeps = 500
	be, _ := Get("anneal.sa")
	res, err := be.Execute(annealMaxCutBundle(t, ctx), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := res.Meta["embedding"].(EmbeddingInfo)
	if !ok {
		t.Fatal("embedding meta missing")
	}
	if info.PhysicalQubits < 4 || info.Topology != "chimera" {
		t.Errorf("embedding info = %+v", info)
	}
	counts := map[string]int{}
	for _, e := range res.Entries {
		counts[e.Bitstring] += e.Count
	}
	if frac := float64(counts["1010"]+counts["0101"]) / 300; frac < 0.8 {
		t.Errorf("embedded optimal fraction = %v", frac)
	}
}

// TestAnnealBackendShardsDoNotMoveResults: the shard grant is the sampler's
// width, never what it samples.
func TestAnnealBackendShardsDoNotMoveResults(t *testing.T) {
	be, _ := Get("anneal.sa")
	var want []result.Entry
	for _, shards := range []int{0, 1, 3} {
		ctx := ctxdesc.NewAnneal("anneal.sa", 64, 5)
		ctx.Anneal.Sweeps = 200
		res, err := be.Execute(annealMaxCutBundle(t, ctx), ExecOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Entries
		} else if fmt.Sprint(res.Entries) != fmt.Sprint(want) {
			t.Errorf("shards %d: entries %v, shards 0: %v", shards, res.Entries, want)
		}
	}
}

// TestMaskCountsToClbits: a register-indexed mask lands on the schema's
// clbits, and a clbit order that does not parse is an error, not a bit
// silently dropped.
func TestMaskCountsToClbits(t *testing.T) {
	schema := &qop.ResultSchema{ClbitOrder: []string{"s[2]", "s[0]", "s[1]"}}
	got, err := maskCountsToClbits(map[uint64]int{0b001: 3, 0b100: 2, 0b110: 1}, schema)
	if err != nil {
		t.Fatal(err)
	}
	// spin 0 → clbit 1, spin 2 → clbit 0, spins 1 and 2 → clbits 2 and 0.
	want := map[uint64]int{0b010: 3, 0b001: 2, 0b101: 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("clbit counts %v, want %v", got, want)
	}
	schema.ClbitOrder[1] = "s0"
	if _, err := maskCountsToClbits(map[uint64]int{1: 1}, schema); err == nil {
		t.Error("malformed clbit reference accepted")
	}
}

func TestAnnealBackendRejectsGateOps(t *testing.T) {
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.5}, []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewAnneal("anneal.sa", 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	be, _ := Get("anneal.sa")
	if _, err := be.Execute(b, ExecOptions{}); err == nil {
		t.Error("anneal backend accepted a QAOA gate stack")
	}
}

func TestPulseBackend(t *testing.T) {
	gamma, beta := 0.5, 0.3
	ctx := ctxdesc.New()
	ctx.Exec = &ctxdesc.Exec{Engine: "pulse.model", Seed: 1}
	b := gateMaxCutBundle(t, gamma, beta, ctx)
	be, err := Get("pulse.model")
	if err != nil {
		t.Fatal(err)
	}
	res, err := be.Execute(b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, ok := res.Meta["pulse"].(PulseInfo)
	if !ok {
		t.Fatal("pulse meta missing")
	}
	if info.TotalDurationNS <= 0 {
		t.Errorf("pulse duration = %v", info.TotalDurationNS)
	}
	if len(res.Entries) != 0 {
		t.Error("pulse engine produced counts")
	}
}

func TestGateBackendWithQECContext(t *testing.T) {
	gamma, beta := 0.5, 0.3
	ctx := ctxdesc.NewGate("gate.statevector", 256, 3)
	ctx.QEC = &ctxdesc.QEC{CodeFamily: "surface", Distance: 7, Allocator: "auto", PhysErrorRate: 1e-3}
	res, err := (&Gate{engine: "gate.statevector"}).Execute(gateMaxCutBundle(t, gamma, beta, ctx), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Meta["qec"]; !ok {
		t.Error("qec overhead missing from meta")
	}
}

func TestGateBackendWithCommContext(t *testing.T) {
	gamma, beta := 0.5, 0.3
	ctx := ctxdesc.NewGate("gate.statevector", 256, 3)
	ctx.Comm = &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 2, AllowTeleport: true}
	res, err := (&Gate{engine: "gate.statevector"}).Execute(gateMaxCutBundle(t, gamma, beta, ctx), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Meta["comm"]; !ok {
		t.Error("comm plan missing from meta")
	}
	// The ring QAOA on a 2+2 split has crossing gates; teleportation must
	// not shift the sampled expected cut from the exact local value
	// (≈1.152 at these angles).
	g := graph.Cycle(4)
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, g, []float64{gamma}, []float64{beta})
	if err != nil {
		t.Fatal(err)
	}
	low, err := algolib.Lower(seq, algolib.Registers{"ising_vars": reg})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	exact := st.ExpectationDiagonal(func(k uint64) float64 { return g.CutValueBits(k) })

	cut := 0.0
	total := 0
	for _, e := range res.Entries {
		cut += g.CutValueBits(e.Index) * float64(e.Count)
		total += e.Count
	}
	if total != 256 {
		t.Errorf("total counts %d", total)
	}
	sampled := cut / float64(total)
	if math.Abs(sampled-exact) > 0.35 { // 256-shot sampling noise band
		t.Errorf("distributed expected cut %v deviates from exact %v", sampled, exact)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Engines() {
		be, err := Get(name)
		if err != nil || be.Name() != name {
			t.Errorf("Get(%q) = %v, %v", name, be, err)
		}
	}
	if _, err := Get("quantum.magic"); err == nil {
		t.Error("unknown engine accepted")
	}
	if len(Engines()) < 5 {
		t.Errorf("registry too small: %v", Engines())
	}
}

// stubBackend is a minimal Backend for Register tests.
type stubBackend struct{ name string }

func (s *stubBackend) Name() string { return s.name }
func (s *stubBackend) Execute(b *bundle.Bundle, _ ExecOptions) (*result.Result, error) {
	return &result.Result{Engine: s.name}, nil
}

func TestRegisterAndUnregister(t *testing.T) {
	const name = "stub.register_test"
	prev := Register(name, func() Backend { return &stubBackend{name: name} })
	if prev != nil {
		t.Fatalf("fresh name %q had a previous constructor", name)
	}
	defer Unregister(name)

	be, err := Get(name)
	if err != nil || be.Name() != name {
		t.Fatalf("Get(%q) = %v, %v", name, be, err)
	}
	found := false
	for _, n := range Engines() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Engines() lacks %q: %v", name, Engines())
	}

	// Replacing returns the old constructor so callers can restore it.
	prev = Register(name, func() Backend { return &stubBackend{name: "replaced"} })
	if prev == nil {
		t.Fatal("replacement did not return the previous constructor")
	}
	Register(name, prev)
	if be, _ := Get(name); be.Name() != name {
		t.Fatalf("restored constructor yields %q", be.Name())
	}

	Unregister(name)
	if _, err := Get(name); err == nil {
		t.Fatal("unregistered engine still resolvable")
	}
}

// TestRegistryConcurrent exercises Get/Engines/Register from concurrent
// goroutines; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("stub.concurrent_%d", i)
			for j := 0; j < 100; j++ {
				Register(name, func() Backend { return &stubBackend{name: name} })
				if _, err := Get("gate.statevector"); err != nil {
					t.Error(err)
					return
				}
				Engines()
				Unregister(name)
			}
		}(i)
	}
	wg.Wait()
}

func TestExpectedCutBandE3(t *testing.T) {
	// E3 consolidated: both backends return optimal cuts 1010/0101; the
	// QAOA expected cut sits in the paper's 3.0–3.2 band at optimal
	// angles (checked exactly, no sampling noise).
	_, _, exact := bestQAOAAngles(t)
	if exact < 3.0-1e-9 || exact > 3.2+1e-9 {
		// p=1 theoretical optimum for C4 is 3.0 exactly; the paper's
		// band extends to 3.2 for its "basic settings".
		if math.Abs(exact-3.0) > 0.05 {
			t.Errorf("grid-optimal expected cut = %v, outside the paper band", exact)
		}
	}
}
