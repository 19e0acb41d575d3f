// Command maxcut reproduces the paper's §5 proof of concept end to end:
// the same typed Max-Cut problem (4-node cycle, unit weights, an
// ISING_SPIN register of width 4) realized on the gate path (QAOA on the
// statevector simulator — Fig. 2) and the annealing path (Ising problem
// on the simulated annealer — Fig. 3), by changing only the operator
// formulation and the context descriptor.
//
// With -emit DIR it also writes the four JSON artifacts of the workflow
// diagrams (QDT.json, QOP.json, CTX.json, job.json) for each path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/runtime"
)

func main() {
	emit := flag.String("emit", "", "directory to write QDT/QOP/CTX/job JSON artifacts")
	samples := flag.Int("samples", 4096, "gate-path shots")
	reads := flag.Int("reads", 1000, "anneal-path num_reads")
	seed := flag.Uint64("seed", 42, "execution seed")
	gamma := flag.Float64("gamma", 0.3926990817, "QAOA cost angle (default ≈ π/8)")
	beta := flag.Float64("beta", 1.1780972451, "QAOA mixer angle (default ≈ 3π/8)")
	flag.Parse()
	if err := run(*emit, *samples, *reads, *seed, *gamma, *beta); err != nil {
		fmt.Fprintln(os.Stderr, "maxcut:", err)
		os.Exit(1)
	}
}

func run(emit string, samples, reads int, seed uint64, gamma, beta float64) error {
	g := graph.Cycle(4)
	exact := g.MaxCutBruteForce()
	fmt.Println("== Max-Cut on the 4-node cycle (paper §5) ==")
	fmt.Printf("exact optimum: cut=%v, assignments:", exact.Value)
	probe := qdt.NewIsingVars("ising_vars", "s", 4)
	for _, m := range exact.Assignments {
		fmt.Printf(" %s", probe.BitstringLSBFirst(m))
	}
	fmt.Println()

	// Shared quantum data type: the single intent-side declaration both
	// backends consume.
	reg := qdt.NewIsingVars("ising_vars", "s", 4)

	// ---- Gate path (Fig. 2): QAOA descriptor stack + gate context. ----
	gateSeq, err := algolib.BuildQAOA(reg, g, []float64{gamma}, []float64{beta})
	if err != nil {
		return err
	}
	gateCtx := ctxdesc.NewGate("gate.aer_simulator", samples, seed)
	gateCtx.Exec.Target = &ctxdesc.Target{
		BasisGates:  []string{"sx", "rz", "cx"},
		CouplingMap: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, // the paper's 4-qubit ring
	}
	gateCtx.Exec.Options = map[string]any{"optimization_level": 2}
	gateBundle, err := bundle.New([]*qdt.DataType{reg}, gateSeq, gateCtx)
	if err != nil {
		return err
	}
	if emit != "" {
		if err := emitArtifacts(filepath.Join(emit, "gate"), reg, gateSeq, gateCtx, gateBundle); err != nil {
			return err
		}
	}
	gateRes, err := runtime.Submit(gateBundle, runtime.Options{})
	if err != nil {
		return err
	}
	fmt.Println("\n-- gate path (QAOA, engine gate.aer_simulator) --")
	report(gateRes, g)

	// ---- Anneal path (Fig. 3): single Ising descriptor + anneal ctx. --
	model := ising.FromMaxCut(g)
	isingOp, err := algolib.NewIsingProblem(reg, model)
	if err != nil {
		return err
	}
	annealSeq := qop.Sequence{isingOp}
	annealCtx := ctxdesc.NewAnneal("anneal.neal", reads, seed)
	annealBundle, err := bundle.New([]*qdt.DataType{reg}, annealSeq, annealCtx)
	if err != nil {
		return err
	}
	if emit != "" {
		if err := emitArtifacts(filepath.Join(emit, "anneal"), reg, annealSeq, annealCtx, annealBundle); err != nil {
			return err
		}
	}
	annealRes, err := runtime.Submit(annealBundle, runtime.Options{})
	if err != nil {
		return err
	}
	fmt.Println("\n-- anneal path (Ising, engine anneal.neal) --")
	report(annealRes, g)

	gateFP, _ := gateBundle.Fingerprint()
	annealFP, _ := annealBundle.Fingerprint()
	fmt.Println("\n-- portability --")
	fmt.Printf("gate intent fingerprint:   %s\n", gateFP[:16])
	fmt.Printf("anneal intent fingerprint: %s\n", annealFP[:16])
	fmt.Println("(formulations differ — QAOA stack vs Ising problem — but both consume")
	fmt.Println(" the identical quantum data type; swap only operator formulation + context)")
	return nil
}

func report(res *result.Result, g *graph.Graph) {
	res.Sort()
	cut := 0.0
	total := 0
	for _, e := range res.Entries {
		cut += g.CutValueBits(e.Index) * float64(e.Count)
		total += e.Count
	}
	for i, e := range res.Entries {
		if i >= 6 {
			fmt.Printf("  … %d more outcomes\n", len(res.Entries)-i)
			break
		}
		marker := ""
		if g.CutValueBits(e.Index) == 4 {
			marker = "  <- optimal"
		}
		if e.HasEnergy {
			fmt.Printf("  %s  count=%-5d energy=%+.1f cut=%.0f%s\n", e.Bitstring, e.Count, e.Energy, g.CutValueBits(e.Index), marker)
		} else {
			fmt.Printf("  %s  count=%-5d cut=%.0f%s\n", e.Bitstring, e.Count, g.CutValueBits(e.Index), marker)
		}
	}
	if total > 0 {
		fmt.Printf("  expected cut: %.3f (paper band ≈ 3.0–3.2 for the gate path)\n", cut/float64(total))
	}
}

func emitArtifacts(dir string, reg *qdt.DataType, seq qop.Sequence, ctx *ctxdesc.Context, b *bundle.Bundle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeJSON := func(name string, v any) error {
		raw, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
	}
	if err := writeJSON("QDT.json", reg); err != nil {
		return err
	}
	for i, op := range seq {
		if err := writeJSON(fmt.Sprintf("QOP_%02d.json", i), op); err != nil {
			return err
		}
	}
	if err := writeJSON("CTX.json", ctx); err != nil {
		return err
	}
	raw, err := b.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "job.json"), raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote descriptor artifacts to %s\n", dir)
	return nil
}
