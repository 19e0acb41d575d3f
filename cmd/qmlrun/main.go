// Command qmlrun executes a job.json submission bundle through the middle
// layer runtime: validation, backend selection from the context (or the
// scheduler when the context names no engine), execution, and decoded
// output.
//
//	qmlrun job.json
//	qmlrun -engine anneal.sa job.json   # override the context's engine
//	qmlrun -top 5 job.json
//	qmlrun -parallel 4 a.json b.json c.json   # batch mode on a worker pool
//	qmlrun -profile job.json   # print the kernel-granular execution profile
//
// -profile runs statevector execution with the kernel profiler on and
// appends the per-kernel table to the output: one row per fused kernel
// with its kind, support mask, wall time, per-shard min/max and the
// imbalance ratio (max/mean over shards). Profiling never changes
// counts — the sweep bodies and shard ranges are identical either way.
//
// An OpenQASM 2.0 circuit runs like any bundle: -qasm parses the file
// (the ToQASM subset plus common Qiskit spellings), wraps it as a
// GATE_LIST operator over a boolean register with full-register
// readout, and executes it on the gate path:
//
//	qmlrun -qasm bell.qasm
//	qmlrun -qasm -shots 4096 -seed 7 grover.qasm
//
// The reverse direction still exists: -emit-qasm prints the circuit the
// gate engine runs for a bundle (lowered, transpiled and, under a comm
// block, distributed) as OpenQASM 2.0.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/ctxdesc"
	"repro/internal/jobs"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/runtime"
	"repro/internal/sim"
)

func main() {
	engine := flag.String("engine", "", "override the context's exec.engine")
	top := flag.Int("top", 10, "show at most this many outcomes")
	estimate := flag.Bool("estimate", false, "print per-engine cost estimates instead of executing")
	qasm := flag.Bool("qasm", false, "treat the input as an OpenQASM 2.0 circuit and run it on the gate path")
	emitQASM := flag.Bool("emit-qasm", false, "print the circuit the gate engine runs as OpenQASM 2.0 instead of executing")
	shots := flag.Int("shots", 1024, "samples for -qasm runs (job.json bundles carry their own)")
	seed := flag.Uint64("seed", 1, "sampling seed for -qasm runs")
	parallel := flag.Int("parallel", 0, "batch mode: execute all job files on a pool of this many workers")
	shards := flag.Int("shards", 0, "statevector shards (single run: the grant; batch: the lone-job cap; 0 = auto)")
	profile := flag.Bool("profile", false, "run with the kernel-granular profiler on and print the per-kernel table (counts are unchanged)")
	flag.Parse()
	if *parallel > 0 {
		if flag.NArg() < 1 || *estimate || *qasm || *emitQASM {
			fmt.Fprintln(os.Stderr, "usage: qmlrun -parallel n [-engine name] [-top n] [-shards n] job.json [job.json …]")
			os.Exit(2)
		}
		if err := runParallel(flag.Args(), *engine, *parallel, *shards, *top); err != nil {
			fmt.Fprintln(os.Stderr, "qmlrun:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qmlrun [-engine name] [-top n] [-estimate] [-qasm] [-emit-qasm] [-parallel n] [-shards n] [-profile] job.json|file.qasm")
		os.Exit(2)
	}
	var err error
	switch {
	case *estimate:
		err = runEstimate(flag.Arg(0))
	case *emitQASM:
		err = runQASM(flag.Arg(0))
	case *qasm:
		err = runFromQASM(flag.Arg(0), *engine, *top, *shards, *shots, *seed, *profile)
	default:
		err = run(flag.Arg(0), *engine, *top, *shards, *profile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qmlrun:", err)
		os.Exit(1)
	}
}

// runEstimate prints the scheduler's per-engine cost projection — the
// "estimate queue and runtime" capability the paper's §2 calls for.
func runEstimate(path string) error {
	b, err := bundle.Load(path, qop.ValidateOptions{})
	if err != nil {
		return err
	}
	ests, err := runtime.EstimateAll(b)
	if err != nil {
		return err
	}
	fmt.Println("engine              feasible   duration(ms)   2q-gates   depth   units")
	for _, e := range ests {
		if !e.Feasible {
			fmt.Printf("%-18s  no (%s)\n", e.Engine, e.Reason)
			continue
		}
		fmt.Printf("%-18s  yes      %12.3f   %8d   %5d   %5d\n",
			e.Engine, e.DurationNS/1e6, e.TwoQubitGates, e.Depth, e.PhysicalUnits)
	}
	return nil
}

// runQASM prints the circuit the gate engine runs for the bundle as
// OpenQASM 2.0.
func runQASM(path string) error {
	b, err := bundle.Load(path, qop.ValidateOptions{})
	if err != nil {
		return err
	}
	text, err := emitQASM(b)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

// emitQASM renders the gate engine's realization of b: lowered,
// transpiled and, under a comm block, distributed over EPR ancillas.
func emitQASM(b *bundle.Bundle) (string, error) {
	r, err := backend.RealizeCircuit(b, false, backend.ExecOptions{})
	if err != nil {
		return "", err
	}
	return r.Circuit.ToQASM()
}

// runFromQASM parses an OpenQASM 2.0 file and executes it through the
// same runtime path as a bundle — the dormant parser's CLI entry point.
func runFromQASM(path, engineOverride string, top, shards, shots int, seed uint64, profile bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := qasmBundle(string(src), engineOverride, shots, seed)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	res, err := runtime.Submit(b, runtime.Options{Shards: shards, Profile: profile})
	if err != nil {
		return err
	}
	printResult(res, top)
	printProfile(res)
	return nil
}

// qasmBundle wraps a parsed OpenQASM circuit as a one-register bundle:
// a GATE_LIST operator carrying the raw gates plus a full-register
// MEASUREMENT readout (the parser validates the file's own measure
// statements; sampling always reads every qubit). QASM names no
// execution context, so the bundle runs on the gate path —
// gate.statevector unless engineOverride picks another gate engine.
func qasmBundle(src, engineOverride string, shots int, seed uint64) (*bundle.Bundle, error) {
	c, err := circuit.FromQASM(src)
	if err != nil {
		return nil, err
	}
	if c.NumQubits == 0 {
		return nil, fmt.Errorf("qasm: no quantum register declared")
	}
	reg := qdt.New("q", "q", c.NumQubits, qdt.BoolRegister, qdt.AsBool)
	gl, err := algolib.NewGateList(reg, c)
	if err != nil {
		return nil, err
	}
	engine := "gate.statevector"
	if engineOverride != "" {
		engine = engineOverride
	}
	ctx := ctxdesc.NewGate(engine, shots, seed)
	return bundle.New([]*qdt.DataType{reg}, qop.Sequence{gl, algolib.NewMeasurement(reg)}, ctx)
}

func run(path, engineOverride string, top, shards int, profile bool) error {
	b, err := loadBundle(path, engineOverride)
	if err != nil {
		return err
	}
	res, err := runtime.Submit(b, runtime.Options{Shards: shards, Profile: profile})
	if err != nil {
		return err
	}
	printResult(res, top)
	printProfile(res)
	return nil
}

// loadBundle loads a job.json and applies an optional engine override.
func loadBundle(path, engineOverride string) (*bundle.Bundle, error) {
	b, err := bundle.Load(path, qop.ValidateOptions{})
	if err != nil {
		return nil, err
	}
	if engineOverride != "" {
		ctx := b.Context
		if ctx == nil {
			ctx = ctxdesc.New()
		}
		ctx = ctx.Clone()
		if ctx.Exec == nil {
			ctx.Exec = &ctxdesc.Exec{}
		}
		ctx.Exec.Engine = engineOverride
		b = b.WithContext(ctx)
	}
	return b, nil
}

// runParallel executes every job file concurrently on a jobs.Pool — the
// batch-mode consumer of the same scheduler cmd/qmlserve exposes over
// HTTP. Identical bundles (same intent, context, shots, seed) execute
// once and the duplicates are served from the content-addressed cache.
func runParallel(paths []string, engineOverride string, workers, maxShards, top int) error {
	// MaxRecords unbounded: the batch holds every job ID and reads each
	// result exactly once, so no record may be evicted mid-batch.
	pool := jobs.NewPool(jobs.Options{Workers: workers, QueueDepth: len(paths), MaxRecords: -1, MaxShards: maxShards})
	defer pool.Close()

	ids := make([]string, len(paths))
	for i, path := range paths {
		b, err := loadBundle(path, engineOverride)
		if err != nil {
			return err
		}
		st, err := pool.Submit(b, jobs.SubmitOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		ids[i] = st.ID
	}

	done, hits, failed := 0, 0, 0
	for i, id := range ids {
		st, err := pool.Wait(id)
		if err != nil {
			return err
		}
		fmt.Printf("== %s (%s: %s", paths[i], id, st.State)
		if st.CacheHit {
			hits++
			fmt.Printf(", cache hit")
		} else if st.Coalesced {
			fmt.Printf(", coalesced")
		} else {
			fmt.Printf(", queued %.1fms, ran %.1fms",
				float64(st.QueueWait().Microseconds())/1000, float64(st.RunTime().Microseconds())/1000)
		}
		fmt.Println(") ==")
		res, err := pool.Result(id)
		if err != nil {
			failed++
			fmt.Printf("  error: %v\n", err)
			continue
		}
		done++
		printResult(res, top)
	}

	workerNoun := "workers"
	if workers == 1 {
		workerNoun = "worker"
	}
	fmt.Printf("\nbatch: %d jobs on %d %s — %d done (%d cache hits), %d failed\n",
		len(ids), workers, workerNoun, done, hits, failed)
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, len(paths))
	}
	return nil
}

func printResult(res *result.Result, top int) {
	fmt.Printf("engine: %s\nsamples: %d\n", res.Engine, res.Samples)
	if fp, ok := res.Meta["intent_fingerprint"].(string); ok {
		fmt.Printf("intent: %s\n", fp[:16])
	}
	shown := 0
	for _, e := range res.Entries {
		if shown >= top {
			fmt.Printf("… %d more outcomes\n", len(res.Entries)-shown)
			break
		}
		if e.HasEnergy {
			fmt.Printf("  %s  count=%-6d energy=%+.3f\n", e.Bitstring, e.Count, e.Energy)
		} else {
			fmt.Printf("  %s  count=%-6d\n", e.Bitstring, e.Count)
		}
		shown++
	}
	for _, key := range []string{"transpile", "embedding", "comm", "qec", "pulse"} {
		if v, ok := res.Meta[key]; ok {
			fmt.Printf("%s: %+v\n", key, v)
		}
	}
}

// printProfile renders the kernel-granular execution profile attached by
// a -profile run (res.Meta["profile"]); silent when the result carries
// none (engines without a statevector plan, or -profile off).
func printProfile(res *result.Result) {
	p, ok := res.Meta["profile"].(*sim.Profile)
	if !ok || p == nil {
		return
	}
	fmt.Printf("\nprofile: %d kernels over %d shards, total %.3f ms\n",
		len(p.Kernels), p.Shards, float64(p.TotalNs)/1e6)
	fmt.Println("  idx  kind       support             ms   shard min/max ms   imbalance")
	for _, k := range p.Kernels {
		fmt.Printf("  %3d  %-9s  %#016x  %9.3f  %8.3f/%-8.3f  %9.2f\n",
			k.Index, k.Kind, k.Support, float64(k.Ns)/1e6,
			float64(k.ShardMinNs)/1e6, float64(k.ShardMaxNs)/1e6, k.Imbalance)
	}
}
