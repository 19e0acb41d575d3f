package main

import (
	"fmt"
	"math/rand"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/sim"
)

// Op classes. The mix classes attribute latency inside serve_mix and
// dispatch_mix; sim20 and sweep are the single class of their workload.
const (
	classGate   = "gate"
	classHit    = "hit"
	classAnneal = "anneal"
	classNoisy  = "noisy"
	classSim20  = "sim20"
	classSweep  = "sweep"
)

// mixClasses are the classes of the mix workloads, in reporting order.
var mixClasses = []string{classGate, classHit, classAnneal, classNoisy}

// Workload sizes. They are constants, not flags: a metric keeps its
// meaning only while the inputs keep their shape.
const (
	hotSetSize  = 32   // bundles preloaded in set-up and re-submitted as cache hits
	gateShots   = 1024 // shots of every noiseless gate job
	annealSpins = 12
	annealReads = 16
	noisyQubits = 8
	noisyShots  = 128
	sim20Qubits = 20
	sweepQubits = 14
	sweepPoints = 32
	sweepShots  = 256
	// verifyEvery: every n-th mix op is re-executed in-process through
	// runtime.Submit and compared entry for entry.
	verifyEvery = 50
	// verifySim20 jobs, and verifyGridPoints points of each of the first
	// verifyGrids grids, get the same check.
	verifySim20      = 3
	verifyGrids      = 3
	verifyGridPoints = 2
)

// noiseModel is the Pauli noise of the noisy class.
var noiseModel = sim.NoiseModel{Prob1Q: 0.001, Prob2Q: 0.01, ReadoutFlip: 0.02}

// mixPattern is one 20-op cycle of the mix: 11 gate (55 %), 5 hit (25 %),
// 2 anneal (10 %), 2 noisy (10 %), interleaved so every stretch of a run
// sees every class. Exact counts per cycle make the expected cache-hit
// count a number, not a distribution.
var mixPattern = [20]string{
	classGate, classHit, classGate, classAnneal, classGate,
	classHit, classGate, classNoisy, classGate, classHit,
	classGate, classGate, classHit, classAnneal, classGate,
	classGate, classHit, classNoisy, classGate, classGate,
}

// Workload names one traffic shape and the processes it runs against.
type Workload struct {
	Name string
	Why  string
	// Dispatch runs a dispatcher in front of two workers instead of one
	// node.
	Dispatch bool
	// WarmupOps is the fixed number of ops set-up runs after the preload,
	// so that work moved into set-up shows in setup_s.
	WarmupOps int
	// UnitsPerOp converts ops to the unit ops_per_s counts: 1 job, or the
	// points of one sweep grid.
	UnitsPerOp int
	// Mix selects the 55/25/10/10 traffic mix; otherwise every op is of
	// class Class.
	Mix   bool
	Class string
	// TimerBound marks a workload whose lone latency a timer sets, not the
	// CPU: behind the dispatcher 100 of the median op's 106 ms are the
	// default -poll-interval sleep, which no machine speed stretches, so
	// that latency is reported as measured and not divided by the machine's
	// slowdown.
	TimerBound bool
}

var workloads = []Workload{
	{
		Name: "serve_mix", Mix: true, WarmupOps: 40, UnitsPerOp: 1,
		Why: "every op costs a few ms, so HTTP decode, validation, cache key, journal, queue hand-off and result encode are most of the work and the kernels almost none",
	},
	{
		Name: "serve_sim20", Class: classSim20, WarmupOps: 3, UnitsPerOp: 1,
		Why: "unique 20-qubit QAOA jobs: the sim kernels do ~90 % of the work, so a kernel, layout or shard-pool change must move it and a serving change must not",
	},
	{
		Name: "serve_sweep14", Class: classSweep, WarmupOps: 2, UnitsPerOp: sweepPoints,
		Why: "32-point 14-qubit sweeps: one parametric compile, a bind, an execute and a cache key per point, one large result document; a gain for single jobs that costs sweeps shows here",
	},
	{
		Name: "dispatch_mix", Mix: true, Dispatch: true, TimerBound: true, WarmupOps: 40, UnitsPerOp: 1,
		Why: "the identical op list as serve_mix behind a dispatcher and two worker processes: only the fleet layer differs, so the difference is the dispatcher tax",
	},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Op is one generated request.
type Op struct {
	Index int
	Class string
	// Path is the submission endpoint.
	Path string
	Body []byte
	// Shots is the count total every result (every point's result, for a
	// sweep) must sum to.
	Shots int
	// Points is the grid size of a sweep, 0 for a job.
	Points int
	// Hot is the hot-set slot this op duplicates, -1 for a unique op.
	Hot int
	// Verify marks the op for in-process re-execution.
	Verify bool
	// Edges is the Max-Cut graph of an anneal op, kept to recompute the
	// energies the server reports.
	Edges []graph.Edge
}

// Generator derives a workload's ops from the seed. Op i depends on
// (seed, workload shape, i) alone, so concurrent clients drawing indices
// from a shared counter issue the same op list in any interleaving, and
// serve_mix and dispatch_mix issue the identical list.
type Generator struct {
	w    Workload
	seed uint64
	// hot is the hot set of a mix workload: unique gate jobs submitted
	// once in set-up so that every later duplicate is a cache hit.
	hot []Op
}

func newGenerator(w Workload, seed uint64) (*Generator, error) {
	g := &Generator{w: w, seed: seed}
	if !w.Mix {
		return g, nil
	}
	for k := 0; k < hotSetSize; k++ {
		op, err := gateOp(g.stream(domainHot, uint64(k)), mixQubits(k), classHit)
		if err != nil {
			return nil, fmt.Errorf("generating hot-set bundle %d: %w", k, err)
		}
		op.Index, op.Hot = -1, k
		g.hot = append(g.hot, op)
	}
	return g, nil
}

// splitmix is the 64-bit finalizer used to derive independent per-op
// streams from (seed, index).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream returns the private random stream of one op (or hot-set slot).
func (g *Generator) stream(domain, i uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(splitmix(g.seed^domain<<56) + i))))
}

// Stream domains keep the hot set and the op list apart.
const (
	domainOp uint64 = iota + 1
	domainHot
)

// mixQubits cycles the unique gate jobs of the mix through 8, 10 and 12
// qubits.
func mixQubits(i int) int { return 8 + 2*(i%3) }

// Op returns op i of the workload.
func (g *Generator) Op(i int) (Op, error) {
	r := g.stream(domainOp, uint64(i))
	class := g.w.Class
	if g.w.Mix {
		class = mixPattern[i%len(mixPattern)]
	}
	var op Op
	var err error
	switch class {
	case classGate:
		op, err = gateOp(r, mixQubits(i), classGate)
	case classHit:
		op = g.hot[r.Intn(hotSetSize)]
	case classAnneal:
		op, err = annealOp(r)
	case classNoisy:
		op, err = noisyOp(r)
	case classSim20:
		op, err = gateOp(r, sim20Qubits, classSim20)
	case classSweep:
		op, err = sweepOp(r)
	default:
		err = fmt.Errorf("unknown op class %q", class)
	}
	if err != nil {
		return Op{}, fmt.Errorf("generating op %d (%s): %w", i, class, err)
	}
	op.Index = i
	switch {
	case g.w.Mix:
		op.Verify = i%verifyEvery == 0
	case class == classSim20:
		op.Verify = i < verifySim20
	case class == classSweep:
		op.Verify = i < verifyGrids
	}
	return op, nil
}

// probeOp is the op the single-layer probes use: one the servers can
// answer from their cache after its first execution. For a mix it is a
// hot-set bundle, otherwise the workload's first op.
func (g *Generator) probeOp() (Op, error) {
	if g.w.Mix {
		return g.hot[0], nil
	}
	return g.Op(0)
}

// maxCutGraph draws a G(n, m) Erdős–Rényi graph with m = 3n/2 edges (mean
// degree 3, the density of the 3-regular Max-Cut instances QAOA is
// usually shown on) and unit weights. The edge count is fixed so that jobs
// of one size do a like amount of work whatever the seed; which edges, is
// the seed's.
func maxCutGraph(r *rand.Rand, n int) (*graph.Graph, error) {
	type pair struct{ u, v int }
	all := make([]pair, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			all = append(all, pair{u, v})
		}
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	g := graph.New(n)
	for _, e := range all[:3*n/2] {
		if err := g.AddEdge(e.u, e.v, 1); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// angle draws a QAOA angle away from 0, where the optimizer would drop
// the rotation and change the circuit's shape.
func angle(r *rand.Rand) float64 { return 0.2 + r.Float64() }

func marshal(qdts []*qdt.DataType, seq qop.Sequence, ctx *ctxdesc.Context) ([]byte, error) {
	b, err := bundle.New(qdts, seq, ctx)
	if err != nil {
		return nil, err
	}
	return b.Marshal()
}

// qaoa builds the p=2 Max-Cut QAOA descriptor stack on a fresh graph.
func qaoa(r *rand.Rand, n int) (*qdt.DataType, qop.Sequence, error) {
	g, err := maxCutGraph(r, n)
	if err != nil {
		return nil, nil, err
	}
	reg := qdt.NewIsingVars("ising_vars", "s", n)
	seq, err := algolib.BuildQAOA(reg, g, []float64{angle(r), angle(r)}, []float64{angle(r), angle(r)})
	return reg, seq, err
}

// gateOp is a unique noiseless QAOA job: 1024 shots on the statevector
// engine, with its own exec seed so no two ops share a cache key.
func gateOp(r *rand.Rand, n int, class string) (Op, error) {
	reg, seq, err := qaoa(r, n)
	if err != nil {
		return Op{}, err
	}
	body, err := marshal([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("gate.statevector", gateShots, r.Uint64()))
	return Op{Class: class, Path: "/v1/jobs", Body: body, Shots: gateShots, Hot: -1}, err
}

// annealOp is the portability pair of gateOp: the same Max-Cut family
// stated as an ISING_PROBLEM for the annealing engine.
func annealOp(r *rand.Rand) (Op, error) {
	g, err := maxCutGraph(r, annealSpins)
	if err != nil {
		return Op{}, err
	}
	model := ising.FromMaxCut(g)
	reg := qdt.NewIsingVars("ising_vars", "s", annealSpins)
	problem, err := algolib.NewIsingProblem(reg, model)
	if err != nil {
		return Op{}, err
	}
	body, err := marshal([]*qdt.DataType{reg}, qop.Sequence{problem}, ctxdesc.NewAnneal("anneal.neal", annealReads, r.Uint64()))
	return Op{Class: classAnneal, Path: "/v1/jobs", Body: body, Shots: annealReads, Hot: -1, Edges: g.Edges}, err
}

// noisyOp runs an 8-qubit QAOA under a Pauli noise model, which takes the
// per-gate trajectory path (sim.RunNoisy) instead of the compiled plan.
func noisyOp(r *rand.Rand) (Op, error) {
	reg, seq, err := qaoa(r, noisyQubits)
	if err != nil {
		return Op{}, err
	}
	ctx := ctxdesc.NewGate("gate.statevector", noisyShots, r.Uint64())
	ctx.Exec.Options = map[string]any{"noise": map[string]any{
		"prob_1q": noiseModel.Prob1Q, "prob_2q": noiseModel.Prob2Q, "readout_flip": noiseModel.ReadoutFlip,
	}}
	body, err := marshal([]*qdt.DataType{reg}, seq, ctx)
	return Op{Class: classNoisy, Path: "/v1/jobs", Body: body, Shots: noisyShots, Hot: -1}, err
}

// sweepOp is one 32-point grid over the two angles of a symbolic p=1
// QAOA on 14 qubits.
func sweepOp(r *rand.Rand) (Op, error) {
	g, err := maxCutGraph(r, sweepQubits)
	if err != nil {
		return Op{}, err
	}
	reg := qdt.NewIsingVars("ising_vars", "s", sweepQubits)
	seq, err := algolib.BuildQAOASymbolic(reg, g, []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		return Op{}, err
	}
	ctx := ctxdesc.NewGate("gate.statevector", sweepShots, r.Uint64())
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}}
	for p := 0; p < sweepPoints; p++ {
		ctx.Sweep.Points = append(ctx.Sweep.Points, []float64{angle(r), angle(r)})
	}
	body, err := marshal([]*qdt.DataType{reg}, seq, ctx)
	return Op{Class: classSweep, Path: "/v1/sweeps", Body: body, Shots: sweepShots, Points: sweepPoints, Hot: -1}, err
}
