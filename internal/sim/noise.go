package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
)

// maxTrajectoryBytes bounds the statevector memory the trajectory engine
// may hold across its shot workers (64 MiB). Each worker holds two states
// — the error-free evolution and the branch a shot finishes on — plus,
// when a kernel stages through them, one pair of staging planes the two
// share: a 2^20-amplitude state (16 MiB) runs at most 2 shot workers;
// anything at 2^21 and above runs shots one after another and spends the
// whole grant on shards instead. Beyond the states a worker keeps one int
// per shot, the kernel its first error follows: a shot's errors are
// redrawn from its stream when it runs, never stored, so no buffer grows
// with shots × gates × error rate.
const maxTrajectoryBytes = 64 << 20

// trajectoryWorkers is how many shot workers a run of shots trajectories
// on n qubits starts under the grant: no more than the grant, the shots
// or the memory budget allow for arenas state-sized plane pairs each, and
// at least one.
func trajectoryWorkers(grant, shots, n, arenas int) int {
	return max(1, min(grant, shots, maxTrajectoryBytes/(arenas*16<<n)))
}

// NoiseModel parametrizes stochastic Pauli (depolarizing-style) noise for
// trajectory simulation: after every gate, each touched qubit suffers a
// uniformly random Pauli error with the class's probability; measured
// bits flip with ReadoutFlip. This is the quantum-trajectory counterpart
// of Aer's basic device noise models, and gives the middle layer's QEC
// context something real to protect against.
type NoiseModel struct {
	Prob1Q      float64 // per-qubit error probability after a 1-qubit gate
	Prob2Q      float64 // per-qubit error probability after a multi-qubit gate
	ReadoutFlip float64 // classical bit-flip probability at measurement
}

// Validate checks probability ranges.
func (n NoiseModel) Validate() error {
	for _, p := range []float64{n.Prob1Q, n.Prob2Q, n.ReadoutFlip} {
		if p < 0 || p > 1 {
			return fmt.Errorf("sim: noise probability %v out of [0,1]", p)
		}
	}
	return nil
}

// Zero reports whether the model injects no noise at all.
func (n NoiseModel) Zero() bool {
	return n.Prob1Q == 0 && n.Prob2Q == 0 && n.ReadoutFlip == 0
}

// RunNoisy executes the circuit under the noise model by quantum
// trajectories: each shot evolves a statevector with randomly inserted
// Pauli errors and samples one outcome. Noiseless runs fall through to the
// fast path, and models with zero gate-error probabilities (pure readout
// noise) evolve a single shared state and sample every shot from its CDF.
// Options.KeepState is rejected whenever the model is non-zero:
// trajectories have no single final state.
//
// Trajectories run the engine every other job runs: the circuit compiles
// once, unfused (an error may follow any gate, so no two gates share a
// kernel), and the kernels, and a Pauli kernel where a draw fires, sweep
// Runner arenas. Shots share their error-free prefix, which is exact, not
// an approximation: a shot's error draws never read the state — after each
// gate one Float64 per operand and an Intn(3) when it fires, the order the
// seeded stream has always had — so a worker first reads each shot's
// stream, on a copy, up to its first error and knows, before evolving
// anything, after which kernel that error lands (a shot that draws none
// has consumed its error draws and stands at its outcome draw). It then
// walks one error-free evolution forward once; a shot whose first error
// follows kernel k copies that evolution's planes after kernel k into a
// second arena and redraws its errors from the start of its own stream,
// applying them and its own suffix there, and a shot without errors
// samples the error-free final state. The prefix is the same kernels on
// the same amplitudes a per-shot reset would have swept, so every
// amplitude is bit-identical to a shot-by-shot evolution; each shot's
// outcome draw and readout flips follow on its own stream as before, and
// counts are a per-register sum, so the order shots finish in is
// invisible. A run that fails (an init onto qubits an error moved out of
// |0…0⟩) reports the failure of its lowest-numbered failing shot, as a
// shot-by-shot loop would.
//
// The shard grant (Options.Shards, 0 = GOMAXPROCS) is the width of the
// whole run and splits once, workers first: as many trajectory workers as
// the grant, the shot count and maxTrajectoryBytes allow, each sweeping on
// grant/workers shards (one below parallelThreshold, where a second shard
// costs more than it saves) — never more than grant goroutines at once.
// Shot ranges split over the workers and each shot draws from its own
// serially pre-derived child RNG stream, so counts are bit-identical for
// any grant.
func RunNoisy(c *circuit.Circuit, noise NoiseModel, opts Options) (*Result, error) {
	if err := noise.Validate(); err != nil {
		return nil, err
	}
	if noise.Zero() {
		return Run(c, opts)
	}
	if opts.KeepState {
		// Each trajectory evolves and discards its own statevector; there
		// is no single final state a Result could carry, so accepting the
		// flag would silently return Final == nil. Reject it instead.
		return nil, fmt.Errorf("sim: KeepState is not supported with a non-zero noise model: trajectories have no single final state")
	}
	if opts.Shots < 0 {
		return nil, fmt.Errorf("sim: negative shot count %d", opts.Shots)
	}
	if c.NumQubits < 1 || c.NumQubits > MaxQubits {
		return nil, fmt.Errorf("sim: qubit count %d out of [1,%d]", c.NumQubits, MaxQubits)
	}
	mm := c.MeasureMap()
	res := &Result{Counts: Counts{}, Shots: opts.Shots}

	qubits := make([]int, 0, len(mm))
	for q := range mm {
		qubits = append(qubits, q)
	}
	sort.Ints(qubits)

	// Child streams derive serially from the master so the per-shot
	// randomness is independent of how shots are scheduled.
	master := rng.New(opts.Seed)
	rngs := make([]*rng.Rand, opts.Shots)
	for shot := range rngs {
		rngs[shot] = master.Child()
	}

	if noise.Prob1Q == 0 && noise.Prob2Q == 0 {
		// Pure readout noise leaves every trajectory's unitary evolution
		// identical: evolve one state through the compiled plan, build its
		// sampling CDF once, and draw every shot by binary search instead
		// of re-evolving 2^n amplitudes and linearly scanning them per
		// shot. Each shot still consumes its own child stream in the same
		// draw order as a full trajectory.
		return runReadoutOnly(c, noise, opts, res, mm, qubits, rngs)
	}

	stageStart := time.Now()
	np, err := compileNoisy(c, noise)
	if err != nil {
		return nil, err
	}
	observeStage(simCompile, opts.Stages, "compile", stageStart)

	stageStart = time.Now()
	grant := opts.Shards
	if grant <= 0 {
		grant = runtime.GOMAXPROCS(0)
	}
	// Every trajectory worker owns two full 2^n statevectors, so the worker
	// count is also clamped to a fixed memory budget: a wide grant on a
	// large state must not multiply peak memory.
	workers := trajectoryWorkers(grant, opts.Shots, c.NumQubits, np.arenas())
	shards := 1
	if 1<<c.NumQubits >= parallelThreshold {
		shards = grant / workers
	}
	counts := make([]Counts, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := shardRange(opts.Shots, workers, w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			counts[w], errs[w] = np.run(shards, rngs[lo:hi], qubits, mm, noise.ReadoutFlip)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, local := range counts {
		for reg, n := range local {
			res.Counts[reg] += n
		}
	}
	observeStage(simExecute, opts.Stages, "execute", stageStart)
	return res, nil
}

// noisyPlan is a circuit compiled for trajectories: the unfused plan and,
// beside kernel i, the instruction it came from and the error the model
// injects after it. Read-only once built; the trajectory workers share it.
type noisyPlan struct {
	pl    *Plan
	steps []noisyStep
	// paulis holds X, Y, Z on qubit q at 3q, 3q+1, 3q+2 — the order
	// Intn(3) has always indexed.
	paulis []kernel
	// staged reports a kernel that stages through the scratch planes
	// (permute, init).
	staged bool
}

// arenas is the number of state-sized plane pairs a trajectory worker
// holds: the error-free state, the branch, and the staging planes the two
// share when a kernel needs them.
func (np *noisyPlan) arenas() int {
	if np.staged {
		return 3
	}
	return 2
}

type noisyStep struct {
	instr  int     // index into Circuit.Instrs, for error reports
	p      float64 // per-qubit error probability after the kernel; 0 after a native op
	qubits []int   // the gate's operands in instruction order, which is the draw order
}

func compileNoisy(c *circuit.Circuit, noise NoiseModel) (*noisyPlan, error) {
	pl, err := compile(c, nil, 0)
	if err != nil {
		return nil, err
	}
	np := &noisyPlan{pl: pl, steps: make([]noisyStep, 0, len(pl.kernels)), paulis: make([]kernel, 0, 3*pl.n)}
	for i := range pl.kernels {
		if k := pl.kernels[i].kind; k == kPermute || k == kInit {
			np.staged = true
		}
	}
	for idx, ins := range c.Instrs {
		if ins.Op == circuit.OpMeasure || ins.Op == circuit.OpBarrier {
			continue
		}
		step := noisyStep{instr: idx}
		if ins.Op == circuit.OpGate {
			step.p, step.qubits = noise.Prob1Q, ins.Qubits
			if len(ins.Qubits) > 1 {
				step.p = noise.Prob2Q
			}
		}
		np.steps = append(np.steps, step)
	}
	var xyz [3]gates.Split2
	for i, name := range [3]gates.Name{gates.X, gates.Y, gates.Z} {
		m, err := gates.Unitary1(name, nil)
		if err != nil {
			return nil, err
		}
		xyz[i] = m.Split()
	}
	for q := 0; q < pl.n; q++ {
		for _, ms := range xyz {
			np.paulis = append(np.paulis, kernel{kind: kGate1Q, q: q, ms: ms})
		}
	}
	return np, nil
}

// firstError reads r's error draws in the order the seeded-stream contract
// draws them — after each gate one Float64 per operand, in operand order,
// and an Intn(3) for each that fires — and returns the kernel the first
// firing one follows. It stops there; without one it returns the kernel
// count, and r then stands at the shot's outcome draw, which
// projectRegister's readout flips follow.
func (np *noisyPlan) firstError(r *rng.Rand) int {
	for i := range np.steps {
		step := &np.steps[i]
		if step.p == 0 {
			continue
		}
		for range step.qubits {
			if r.Float64() < step.p {
				return i
			}
		}
	}
	return len(np.steps)
}

// applyKernel sweeps kernel i over st, naming its instruction on failure.
func (np *noisyPlan) applyKernel(i int, st *State, width int, sweep func(int, func(w, lo, hi int))) error {
	if err := np.pl.kernels[i].apply(st, width, sweep); err != nil {
		return fmt.Errorf("sim: instruction %d: %w", np.steps[i].instr, err)
	}
	return nil
}

// run evolves one trajectory per stream in rngs on a Runner of its own and
// counts the sampled registers. It finds every shot's first error first,
// then visits the shots in the order of the kernel it follows, advancing
// one error-free evolution (the Runner's state) just far enough for each:
// a shot with errors copies it into the branch arena and finishes there, a
// shot without samples it at the end (see RunNoisy for why this is exact).
func (np *noisyPlan) run(shards int, rngs []*rng.Rand, qubits []int, mm map[int]int, flip float64) (Counts, error) {
	counts := Counts{}
	if len(rngs) == 0 {
		return counts, nil
	}
	nk := len(np.pl.kernels)
	// first[s] is the kernel shot s's first error follows, nk if none. A
	// shot with an error keeps its stream where it starts, for finish to
	// redraw; a shot without one moves on to its outcome draw.
	first := make([]int, len(rngs))
	for s, r := range rngs {
		probe := *r
		if first[s] = np.firstError(&probe); first[s] == nk {
			*r = probe
		}
	}
	order := make([]int, len(rngs))
	for s := range order {
		order[s] = s
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(first[a], first[b]) })

	runner, err := newRunner(np.pl.n, shards)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	clean, err := runner.reset()
	if err != nil {
		return nil, err
	}
	width, sweep := runner.pool.shards, runner.pool.do
	var branch *State
	applied := 0 // kernels the error-free evolution has swept
	var cleanErr error
	// A failure is reported for the lowest-numbered failing shot, so a
	// shot numbered above one already failed need not run.
	failShot, failErr := len(rngs), error(nil)
	for _, s := range order {
		if s > failShot {
			continue
		}
		f := first[s]
		for cleanErr == nil && applied <= min(f, nk-1) {
			cleanErr = np.applyKernel(applied, clean, width, sweep)
			applied++
		}
		if cleanErr != nil {
			// Every shot from here on needs the failed kernel's output.
			failShot, failErr = s, cleanErr
			continue
		}
		st := clean
		if f < nk {
			if branch == nil {
				if branch, err = newStateUninit(np.pl.n); err != nil {
					return nil, err
				}
				if np.staged {
					// Staging planes are fully written before they are
					// read, and the two states never sweep at once.
					branch.scratch = clean.scratchPlanes()
				}
			}
			sweep(len(clean.re), func(_, lo, hi int) {
				copy(branch.re[lo:hi], clean.re[lo:hi])
				copy(branch.im[lo:hi], clean.im[lo:hi])
			})
			if err := np.finish(branch, f, rngs[s], width, sweep); err != nil {
				failShot, failErr = s, err
				continue
			}
			st = branch
		}
		// With nothing measured the shots still evolve: an init onto
		// qubits an injected error moved out of |0…0⟩ must surface.
		if len(mm) == 0 {
			continue
		}
		r := rngs[s]
		counts[projectRegister(sampleIndex(st, r), qubits, mm, flip, r)]++
	}
	if failErr != nil {
		return nil, failErr
	}
	return counts, nil
}

// finish completes a trajectory on st, which holds the error-free state
// after kernel f, the one the shot's first error follows. It redraws the
// shot's errors from r, which stands at the start of the shot's stream:
// the draws up to kernel f fire nowhere, as firstError found; from there
// it applies each error where it fires and each later kernel, and leaves
// r at the shot's outcome draw.
func (np *noisyPlan) finish(st *State, f int, r *rng.Rand, width int, sweep func(int, func(w, lo, hi int))) error {
	for i := range np.steps {
		if i > f {
			if err := np.applyKernel(i, st, width, sweep); err != nil {
				return err
			}
		}
		step := &np.steps[i]
		if step.p == 0 {
			continue
		}
		for _, q := range step.qubits {
			if r.Float64() < step.p {
				if err := np.paulis[3*q+r.Intn(3)].apply(st, width, sweep); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runReadoutOnly is the trajectory engine's fast path for models with
// gate-error probabilities of zero: one compiled evolution shared by every
// shot, one CDF build, and an O(n)-deep binary search per draw in place of
// the O(2^n) linear probability scan per shot. Shot draws follow the same
// child-stream order as full trajectories (outcome first, then one flip
// draw per measured qubit), and the serial shot loop makes counts
// trivially identical across shard grants.
func runReadoutOnly(c *circuit.Circuit, noise NoiseModel, opts Options, res *Result, mm map[int]int, qubits []int, rngs []*rng.Rand) (*Result, error) {
	stageStart := time.Now()
	pl, err := Compile(c)
	if err != nil {
		return nil, err
	}
	observeStage(simCompile, opts.Stages, "compile", stageStart)
	if opts.Shots == 0 {
		return res, nil
	}
	runner, err := NewRunner(c.NumQubits, opts.Shards)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	st, err := runner.reset()
	if err != nil {
		return nil, err
	}
	// Evolve even when nothing is measured: runtime errors (an init on
	// qubits not in |0…0⟩) must surface exactly as the per-shot
	// trajectory path surfaces them.
	stageStart = time.Now()
	if err := pl.executeOn(st, runner.pool, nil); err != nil {
		return nil, err
	}
	observeStage(simExecute, opts.Stages, "execute", stageStart)
	if len(mm) == 0 {
		return res, nil
	}
	stageStart = time.Now()
	cdf, _, lastPos := runner.buildCDF(st)
	for shot := 0; shot < opts.Shots; shot++ {
		r := rngs[shot]
		// Unscaled draw, matching sampleIndex's trajectory semantics: the
		// clamp catches u beyond the drifted top of the distribution.
		k := sampleCDF(cdf, lastPos, r.Float64())
		res.Counts[projectRegister(k, qubits, mm, noise.ReadoutFlip, r)]++
	}
	observeStage(simSample, opts.Stages, "sample", stageStart)
	return res, nil
}

// projectRegister maps a sampled basis index onto the classical register
// defined by mm, flipping each measured bit with probability flip. The
// draw order — one Float64 per measured qubit, ascending qubit order,
// only when flip > 0 — is part of the seeded-stream contract the
// trajectory and readout-only paths share; r may be nil when flip is 0.
func projectRegister(k uint64, qubits []int, mm map[int]int, flip float64, r *rng.Rand) uint64 {
	var reg uint64
	for _, q := range qubits {
		bit := k >> uint(q) & 1
		if flip > 0 && r.Float64() < flip {
			bit ^= 1
		}
		if bit == 1 {
			reg |= 1 << uint(mm[q])
		}
	}
	return reg
}

// sampleIndex draws one basis index from the Born distribution by a
// linear scan. Only the one-draw-per-state trajectory path uses it — a
// CDF would cost the same 2^n pass it saves; shots drawn repeatedly from
// one evolved state go through buildCDF + sampleCDF instead
// (runReadoutOnly, Run).
func sampleIndex(st *State, r *rng.Rand) uint64 {
	u := r.Float64()
	acc := 0.0
	// Float-drift fallback: if the accumulated norm tops out below u, the
	// draw lands on the last basis state with positive probability — never
	// on a zero-probability state (the same clamp sampleCDF applies).
	last := uint64(0)
	for k := 0; k < st.Dim(); k++ {
		p := st.Probability(uint64(k))
		if p > 0 {
			last = uint64(k)
		}
		acc += p
		if u < acc {
			return uint64(k)
		}
	}
	return last
}
