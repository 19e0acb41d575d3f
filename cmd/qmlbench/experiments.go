package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/bundle"
	"repro/internal/comm"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/jobs"
	"repro/internal/qdt"
	"repro/internal/qec"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// Grid-optimal p=1 angles for the 4-cycle under this library's QAOA
// convention (e^{-iγΣZZ} cost, RX(2β) mixer): γ=π/8, β=3π/8 reach the
// theoretical p=1 optimum of expected cut 3.0.
const (
	bestGamma = 0.3926990817
	bestBeta  = 1.1780972451
)

func isingVars() *qdt.DataType { return qdt.NewIsingVars("ising_vars", "s", 4) }

func gateMaxCutBundle(samples int, seed uint64) (*bundle.Bundle, error) {
	reg := isingVars()
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{bestGamma}, []float64{bestBeta})
	if err != nil {
		return nil, err
	}
	ctx := ctxdesc.NewGate("gate.aer_simulator", samples, seed)
	ctx.Exec.Target = &ctxdesc.Target{
		BasisGates:  []string{"sx", "rz", "cx"},
		CouplingMap: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	ctx.Exec.Options = map[string]any{"optimization_level": 2}
	return bundle.New([]*qdt.DataType{reg}, seq, ctx)
}

func annealMaxCutBundle(reads int, seed uint64) (*bundle.Bundle, error) {
	reg := isingVars()
	op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Cycle(4)))
	if err != nil {
		return nil, err
	}
	return bundle.New([]*qdt.DataType{reg}, qop.Sequence{op}, ctxdesc.NewAnneal("anneal.neal", reads, seed))
}

func runE1(seed uint64) error {
	b, err := gateMaxCutBundle(4096, seed)
	if err != nil {
		return err
	}
	res, err := runtime.Submit(b, runtime.Options{})
	if err != nil {
		return err
	}
	g := graph.Cycle(4)
	cut, total := 0.0, 0
	fmt.Println("outcome  count  cut")
	for _, e := range res.Entries {
		fmt.Printf("  %s   %5d    %.0f\n", e.Bitstring, e.Count, g.CutValueBits(e.Index))
		cut += g.CutValueBits(e.Index) * float64(e.Count)
		total += e.Count
	}
	fmt.Printf("expected cut (sampled, 4096 shots): %.3f   paper: ≈3.0–3.2\n", cut/float64(total))
	fmt.Printf("transpile: %+v\n", res.Meta["transpile"])

	// Variational loop, old vs new serving path: a (γ,β) angle grid that
	// the pre-sweep stack submits as one job per point — each paying its
	// own validate/lower/transpile/compile — against ONE symbolic bundle
	// through the sweep API, which compiles the plan once and binds per
	// point. Counts are bit-identical by the sweep determinism contract.
	angles := []float64{0.13, 0.26, 0.39, 0.52, 0.65, 0.79, 0.92, 1.05, 1.18}
	var points [][]float64
	for _, ga := range angles {
		for _, be := range angles {
			points = append(points, []float64{ga, be})
		}
	}
	reg := isingVars()
	g = graph.Cycle(4)
	const shots = 1024

	poolOld := jobs.NewPool(jobs.Options{Workers: 1, QueueDepth: len(points), CacheSize: -1, MaxRecords: -1})
	defer poolOld.Close()
	startOld := time.Now()
	oldIDs := make([]string, len(points))
	for i, pt := range points {
		seq, err := algolib.BuildQAOA(reg, g, []float64{pt[0]}, []float64{pt[1]})
		if err != nil {
			return err
		}
		pb, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("gate.statevector", shots, seed))
		if err != nil {
			return err
		}
		st, err := poolOld.Submit(pb, jobs.SubmitOptions{})
		if err != nil {
			return err
		}
		oldIDs[i] = st.ID
	}
	oldRes := make([]*result.Result, len(points))
	for i, id := range oldIDs {
		if _, err := poolOld.Wait(id); err != nil {
			return err
		}
		if oldRes[i], err = poolOld.Result(id); err != nil {
			return err
		}
	}
	oldDur := time.Since(startOld)

	seq, err := algolib.BuildQAOASymbolic(reg, g, []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		return err
	}
	sctx := ctxdesc.NewGate("gate.statevector", shots, seed)
	sctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	tmpl, err := bundle.New([]*qdt.DataType{reg}, seq, sctx)
	if err != nil {
		return err
	}
	poolNew := jobs.NewPool(jobs.Options{Workers: 1, QueueDepth: 1, CacheSize: -1, MaxRecords: -1})
	defer poolNew.Close()
	startNew := time.Now()
	sweep, err := poolNew.SubmitSweep(tmpl, jobs.SubmitOptions{})
	if err != nil {
		return err
	}
	if _, err := poolNew.Wait(sweep.ID); err != nil {
		return err
	}
	sweepRes, err := poolNew.SweepResult(sweep.ID)
	if err != nil {
		return err
	}
	newDur := time.Since(startNew)

	bestCut, bestIdx := -1.0, 0
	for i, r := range sweepRes {
		if fmt.Sprint(r.Entries) != fmt.Sprint(oldRes[i].Entries) {
			return fmt.Errorf("E1: sweep point %d counts differ from the per-job path", i)
		}
		c, n := 0.0, 0
		for _, e := range r.Entries {
			c += g.CutValueBits(e.Index) * float64(e.Count)
			n += e.Count
		}
		if avg := c / float64(n); avg > bestCut {
			bestCut, bestIdx = avg, i
		}
	}
	fmt.Printf("variational %d-point (γ,β) grid, per-point counts bit-identical across paths\n", len(points))
	fmt.Printf("  best sampled cut %.3f at γ=%.2f β=%.2f\n", bestCut, points[bestIdx][0], points[bestIdx][1])
	fmt.Printf("  old per-job loop: %.0f ms   sweep API: %.0f ms   speedup: %.1f×\n",
		float64(oldDur.Microseconds())/1000, float64(newDur.Microseconds())/1000,
		float64(oldDur.Nanoseconds())/float64(newDur.Nanoseconds()))
	return nil
}

func runE2(seed uint64) error {
	b, err := annealMaxCutBundle(1000, seed)
	if err != nil {
		return err
	}
	res, err := runtime.Submit(b, runtime.Options{})
	if err != nil {
		return err
	}
	fmt.Println("outcome  count  energy")
	for _, e := range res.Entries {
		fmt.Printf("  %s   %5d   %+.1f\n", e.Bitstring, e.Count, e.Energy)
	}
	top, err := res.Top()
	if err != nil {
		return err
	}
	fmt.Printf("best energy: %+.1f (ground truth -4.0); paper: optimal cuts 1010/0101\n", top.Energy)
	return nil
}

func runE3(seed uint64) error {
	// Exact expected cut at grid-optimal angles (no sampling noise).
	reg := isingVars()
	g := graph.Cycle(4)
	seq, err := algolib.BuildQAOA(reg, g, []float64{bestGamma}, []float64{bestBeta})
	if err != nil {
		return err
	}
	low, err := algolib.Lower(seq, algolib.Registers{"ising_vars": reg})
	if err != nil {
		return err
	}
	st, err := sim.Evolve(low.Circuit)
	if err != nil {
		return err
	}
	exact := st.ExpectationDiagonal(func(k uint64) float64 { return g.CutValueBits(k) })
	fmt.Printf("exact expected cut at (γ*, β*): %.4f   paper band: 3.0–3.2\n", exact)

	// Both backends' most frequent strings.
	gb, err := gateMaxCutBundle(4096, seed)
	if err != nil {
		return err
	}
	gres, err := runtime.Submit(gb, runtime.Options{})
	if err != nil {
		return err
	}
	ab, err := annealMaxCutBundle(1000, seed)
	if err != nil {
		return err
	}
	ares, err := runtime.Submit(ab, runtime.Options{})
	if err != nil {
		return err
	}
	gtop, err := gres.Top()
	if err != nil {
		return err
	}
	atop, err := ares.Top()
	if err != nil {
		return err
	}
	fmt.Printf("gate-path top outcome:   %s   anneal-path top outcome: %s\n", gtop.Bitstring, atop.Bitstring)
	fmt.Println("paper: both runs produce the optimal cut assignments 1010 and 0101 (cut = 4)")
	return nil
}

func runE4(seed uint64) error {
	// Listing 1: 10-qubit QFT + measure, 10000 shots. QFT|0…0⟩ is the
	// uniform superposition: 1024 outcomes, each ≈ 10000/1024 ≈ 9.8.
	reg := qdt.NewPhaseRegister("reg_phase", "phase", 10)
	qft, err := algolib.NewQFT(reg, 0, true, false)
	if err != nil {
		return err
	}
	seq := qop.Sequence{qft, algolib.NewMeasurement(reg)}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("gate.aer_simulator", 10000, seed))
	if err != nil {
		return err
	}
	res, err := runtime.Submit(b, runtime.Options{})
	if err != nil {
		return err
	}
	min, max := 1<<30, 0
	for _, e := range res.Entries {
		if e.Count < min {
			min = e.Count
		}
		if e.Count > max {
			max = e.Count
		}
	}
	fmt.Printf("distinct outcomes: %d / 1024 possible\n", len(res.Entries))
	fmt.Printf("count range: [%d, %d], uniform expectation ≈ 9.77\n", min, max)
	return nil
}

func runE5(uint64) error {
	// Listing 3's cost hint vs our estimator and the realized circuit.
	reg := qdt.NewPhaseRegister("reg_phase", "phase", 10)
	qft, err := algolib.NewQFT(reg, 0, true, false)
	if err != nil {
		return err
	}
	fmt.Printf("paper cost_hint:      twoq=45  depth=100\n")
	fmt.Printf("library estimator:    twoq=%-3d depth=%d\n", qft.CostHint.TwoQ, qft.CostHint.Depth)
	circ, err := algolib.QFTCircuit(10, 0, true, false)
	if err != nil {
		return err
	}
	fmt.Printf("template realization: twoq=%-3d depth=%d (cp counted as one two-qubit gate, + %d swaps)\n",
		circ.TwoQubitCount()-5, circ.Depth(), 5)
	tr, err := transpile.Transpile(circ, transpile.Options{BasisGates: []string{"sx", "rz", "cx"}, OptimizationLevel: 2})
	if err != nil {
		return err
	}
	fmt.Printf("after {sx,rz,cx} decomposition: cx=%d depth=%d\n", tr.Stats.TwoQAfter, tr.Stats.DepthAfter)
	return nil
}

func runE6(uint64) error {
	// Listing 4: ideal all-to-all vs the linear 0–9 coupling map.
	circ, err := algolib.QFTCircuit(10, 0, true, false)
	if err != nil {
		return err
	}
	basis := []string{"sx", "rz", "cx"}
	ideal, err := transpile.Transpile(circ.Copy(), transpile.Options{BasisGates: basis, OptimizationLevel: 2})
	if err != nil {
		return err
	}
	var linear [][2]int
	for i := 0; i < 9; i++ {
		linear = append(linear, [2]int{i, i + 1})
	}
	routed, err := transpile.Transpile(circ.Copy(), transpile.Options{BasisGates: basis, CouplingMap: linear, OptimizationLevel: 2})
	if err != nil {
		return err
	}
	fmt.Println("target                cx     depth  swaps")
	fmt.Printf("all-to-all (ideal)   %4d   %5d      0\n", ideal.Stats.TwoQAfter, ideal.Stats.DepthAfter)
	fmt.Printf("linear 0–9 coupling  %4d   %5d   %4d\n", routed.Stats.TwoQAfter, routed.Stats.DepthAfter, routed.Stats.SwapsInserted)
	fmt.Println("paper: the coupling map \"forces realistic routing and basis decompositions\"")
	return nil
}

func runE7(seed uint64) error {
	fmt.Println("family      d   phys qubits/logical  rounds  logical err (p=1e-3)")
	for _, family := range []string{"repetition", "surface"} {
		for _, d := range []int{3, 5, 7, 9, 11} {
			pol := &ctxdesc.QEC{CodeFamily: family, Distance: d, PhysErrorRate: 1e-3}
			ov, err := qec.Estimate(pol, 1)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %3d   %8.0f             %3d     %.3e\n",
				family, d, ov.QubitOverhead, ov.RoundOverhead, ov.LogicalError)
		}
	}
	// Monte Carlo cross-check of the repetition closed form at d=5.
	mc, err := qec.SimulateRepetition(5, 0.05, 200000, seed)
	if err != nil {
		return err
	}
	exact, err := qec.LogicalErrorRate(&ctxdesc.QEC{CodeFamily: "repetition", Distance: 5}, 0.05)
	if err != nil {
		return err
	}
	fmt.Printf("repetition d=5 @ p=0.05: Monte Carlo %.5f vs closed form %.5f\n", mc.Rate, exact)
	fmt.Println("paper (Listing 5): distance-7 surface code; \"one logical qubit may span dozens of physical qubits\"")
	return nil
}

func runE8(uint64) error {
	fmt.Println("QFT(n) over 2 QPUs   crossing-cx   EPR pairs   classical bits")
	basis := []string{"sx", "rz", "cx"}
	for _, n := range []int{4, 6, 8, 10, 12} {
		circ, err := algolib.QFTCircuit(n, 0, true, false)
		if err != nil {
			return err
		}
		tr, err := transpile.Transpile(circ, transpile.Options{BasisGates: basis, OptimizationLevel: 1})
		if err != nil {
			return err
		}
		part, err := comm.BlockPartition(n, 2, (n+1)/2)
		if err != nil {
			return err
		}
		plan, err := comm.Analyze(tr.Circuit, part)
		if err != nil {
			return err
		}
		fmt.Printf("      n=%-2d              %5d        %5d         %5d\n",
			n, plan.CrossingGates, plan.EPRPairs, plan.ClassicalBits)
	}
	fmt.Println("paper §2: communication volume is a cost dimension schedulers need exposed")
	return nil
}

func runE9(seed uint64) error {
	reg := isingVars()
	op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Cycle(4)))
	if err != nil {
		return err
	}
	intent := qop.Sequence{op}
	contexts := map[string]*ctxdesc.Context{
		"anneal.sa (plain)":    ctxdesc.NewAnneal("anneal.sa", 100, seed),
		"anneal.sa (embedded)": embeddedCtx(seed),
		"scheduler-selected":   nil,
	}
	var first string
	for name, ctx := range contexts {
		b, err := bundle.New([]*qdt.DataType{reg}, intent, ctx)
		if err != nil {
			return err
		}
		if _, err := runtime.Submit(b, runtime.Options{}); err != nil {
			return err
		}
		fp, err := b.Fingerprint()
		if err != nil {
			return err
		}
		if first == "" {
			first = fp
		}
		match := "MATCH"
		if fp != first {
			match = "MISMATCH"
		}
		fmt.Printf("%-22s intent fingerprint %s… %s\n", name, fp[:16], match)
	}
	fmt.Println("paper: \"the same logical program runs unmodified … by swapping only the context descriptor\"")
	return nil
}

func embeddedCtx(seed uint64) *ctxdesc.Context {
	c := ctxdesc.NewAnneal("anneal.sa", 100, seed)
	c.Anneal.Embed = true
	c.Anneal.UnitCells = 1
	c.Anneal.Sweeps = 300
	return c
}

func runE10(uint64) error {
	// Expected cut vs QAOA depth p, angles grid-searched per depth. The
	// search runs twice per depth: the old loop re-lowers and re-compiles
	// every grid point (Lower + Evolve), the new loop lowers the symbolic
	// ansatz once, compiles ONE parametric plan, and Bind(point)s it —
	// only the angle-bearing kernels are re-derived per point. Both must
	// land on the same optimum (bind-invariance contract).
	reg := isingVars()
	g := graph.Cycle(4)
	regs := algolib.Registers{"ising_vars": reg}
	cutOf := func(k uint64) float64 { return g.CutValueBits(k) }
	fmt.Println("p   best expected cut   old loop     parametric plan   speedup")
	for p := 1; p <= 3; p++ {
		grid := []float64{0.13, 0.26, 0.39, 0.52, 0.65, 0.79, 0.92, 1.05, 1.18}
		if p > 1 {
			// Coarsen the grid for p ≥ 2 to keep the sweep tractable.
			grid = []float64{0.26, 0.52, 0.79, 1.05}
		}
		// Enumerate every (γ₁..γₚ, β₁..βₚ) combination.
		var points [][]float64
		var enum func(vals []float64)
		enum = func(vals []float64) {
			if len(vals) == 2*p {
				points = append(points, append([]float64(nil), vals...))
				return
			}
			for _, v := range grid {
				enum(append(vals, v))
			}
		}
		enum(nil)

		startOld := time.Now()
		bestOld := -1.0
		for _, pt := range points {
			seq, err := algolib.BuildQAOA(reg, g, pt[:p], pt[p:])
			if err != nil {
				return err
			}
			low, err := algolib.Lower(seq, regs)
			if err != nil {
				return err
			}
			st, err := sim.Evolve(low.Circuit)
			if err != nil {
				return err
			}
			if cut := st.ExpectationDiagonal(cutOf); cut > bestOld {
				bestOld = cut
			}
		}
		oldDur := time.Since(startOld)

		names := make([]string, 0, 2*p)
		gammaNames := make([]string, p)
		betaNames := make([]string, p)
		for l := 0; l < p; l++ {
			gammaNames[l] = fmt.Sprintf("gamma%d", l)
			betaNames[l] = fmt.Sprintf("beta%d", l)
		}
		names = append(append(names, gammaNames...), betaNames...)
		startNew := time.Now()
		seq, err := algolib.BuildQAOASymbolic(reg, g, gammaNames, betaNames)
		if err != nil {
			return err
		}
		low, err := algolib.LowerParametric(seq, regs, names)
		if err != nil {
			return err
		}
		plan, err := sim.CompileParametric(low.Circuit)
		if err != nil {
			return err
		}
		bestNew := -1.0
		for _, pt := range points {
			bound, err := plan.Bind(pt)
			if err != nil {
				return err
			}
			st, err := sim.NewState(plan.NumQubits())
			if err != nil {
				return err
			}
			if err := bound.Execute(st, 1); err != nil {
				return err
			}
			if cut := st.ExpectationDiagonal(cutOf); cut > bestNew {
				bestNew = cut
			}
		}
		newDur := time.Since(startNew)

		if math.Abs(bestOld-bestNew) > 1e-9 {
			return fmt.Errorf("E10: p=%d optimum differs: old %.12f, parametric %.12f", p, bestOld, bestNew)
		}
		fmt.Printf("%d   %.4f             %7.1f ms   %7.1f ms        %.1f×\n",
			p, bestOld, float64(oldDur.Microseconds())/1000, float64(newDur.Microseconds())/1000,
			float64(oldDur.Nanoseconds())/float64(newDur.Nanoseconds()))
	}
	fmt.Println("shape: p=1 reaches 3.0 (the C4 optimum at depth 1); deeper circuits close the gap to 4")
	return nil
}

func runE11(seed uint64) error {
	fmt.Println("n=12 Erdős–Rényi(0.5) Max-Cut, 50 reads each")
	g := graph.ErdosRenyi(12, 0.5, 7)
	m := ising.FromMaxCut(g)
	gs := m.BruteForce()
	fmt.Printf("true ground energy: %+.1f (cut %.0f)\n", gs.Energy, ising.CutFromEnergy(g, gs.Energy))
	fmt.Println("sampler          best    mean    P(ground)")

	row := func(name string, res *anneal.Result) {
		fmt.Printf("%-14s %+6.1f  %+6.2f   %.3f\n", name, res.Best().Energy, res.MeanEnergy(),
			res.GroundProbability(gs.Energy, 1e-9))
	}
	if r, err := anneal.RandomSample(m, 50, seed); err == nil {
		row("random", r)
	} else {
		return err
	}
	if r, err := anneal.GreedyDescent(m, 50, seed); err == nil {
		row("greedy", r)
	} else {
		return err
	}
	if r, err := anneal.TabuSearch(m, 50, 0, seed); err == nil {
		row("tabu", r)
	} else {
		return err
	}
	for _, sweeps := range []int{10, 100, 1000} {
		r, err := anneal.SampleModel(m, anneal.Params{NumReads: 50, Sweeps: sweeps, Seed: seed})
		if err != nil {
			return err
		}
		row(fmt.Sprintf("SA (%d sweeps)", sweeps), r)
	}
	fmt.Println("shape: SA dominates random/greedy and converges to ground with more sweeps")
	return nil
}
