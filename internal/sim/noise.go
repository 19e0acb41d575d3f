package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/rng"
)

// maxTrajectoryBytes bounds the extra statevector memory the trajectory
// engine may allocate across its shot workers (64 MiB): a 2^20-amplitude
// state (16 MiB) runs at most 4 shot workers; anything at 2^22 and above
// runs shots serially and parallelizes inside each gate sweep instead.
const maxTrajectoryBytes = 64 << 20

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
// trajectories: each shot evolves its own statevector with randomly
// inserted Pauli errors and samples one outcome. Cost is shots × circuit,
// so it suits the small-register workloads of the evaluation; noiseless
// runs fall through to the fast path, and models with zero gate-error
// probabilities (pure readout noise) evolve a single shared state and
// sample every shot from its CDF. Options.KeepState is rejected whenever
// the model is non-zero: trajectories have no single final state.
//
// The shard grant (Options.Shards) parallelizes across trajectories: shot
// ranges split over that many workers, each shot drawing from its own
// serially pre-derived child RNG stream, so counts are bit-identical for
// any grant — including the serial baseline. 0 chooses automatically
// (trajectory workers for small states; serial shots for large states,
// whose sweeps fan out internally). When several trajectory workers run,
// each worker's per-gate sweeps are pinned to its own goroutine — the
// grant never multiplies into workers×GOMAXPROCS sweep goroutines.
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

	workers := opts.Shards
	if workers <= 0 {
		if 1<<c.NumQubits >= parallelThreshold {
			workers = 1 // per-gate sweeps already fan out internally
		} else {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	// Every trajectory worker owns a full 2^n statevector, so clamp the
	// fan-out to a fixed memory budget: a wide grant on a large state
	// must not multiply peak memory (those states parallelize inside
	// each gate sweep instead).
	if maxByMem := maxTrajectoryBytes / (16 << c.NumQubits); workers > maxByMem {
		workers = maxByMem
	}
	if workers > opts.Shots {
		workers = opts.Shots
	}
	if workers < 1 {
		workers = 1
	}

	// With several trajectory workers the per-gate sweeps inside each shot
	// must stay on the worker's goroutine: each sweep on a state at or
	// above parallelThreshold would otherwise fan out to GOMAXPROCS
	// goroutines per worker, oversubscribing the machine workers×cores
	// times. A lone worker keeps the internal fan-out instead.
	serialSweeps := workers > 1
	counts := make([]Counts, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := shardRange(opts.Shots, workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := Counts{}
			for shot := lo; shot < hi; shot++ {
				reg, measured, err := runTrajectory(c, noise, qubits, mm, rngs[shot], serialSweeps)
				if err != nil {
					errs[w] = err
					return
				}
				if measured {
					local[reg]++
				}
			}
			counts[w] = local
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
	return res, nil
}

// runReadoutOnly is the trajectory engine's fast path for models with
// gate-error probabilities of zero: one compiled evolution shared by every
// shot, one CDF build, and an O(n)-deep binary search per draw in place of
// the O(2^n) linear probability scan per shot. Shot draws follow the same
// child-stream order as full trajectories (outcome first, then one flip
// draw per measured qubit), and the serial shot loop makes counts
// trivially identical across shard grants.
func runReadoutOnly(c *circuit.Circuit, noise NoiseModel, opts Options, res *Result, mm map[int]int, qubits []int, rngs []*rng.Rand) (*Result, error) {
	pl, err := Compile(c)
	if err != nil {
		return nil, err
	}
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
	// trajectory path surfaced them.
	if err := pl.executeOn(st, runner.pool, nil); err != nil {
		return nil, err
	}
	if len(mm) == 0 {
		return res, nil
	}
	cdf, _, lastPos := runner.buildCDF(st)
	for shot := 0; shot < opts.Shots; shot++ {
		r := rngs[shot]
		// Unscaled draw, matching sampleIndex's trajectory semantics: the
		// clamp catches u beyond the drifted top of the distribution.
		k := sampleCDF(cdf, lastPos, r.Float64())
		res.Counts[projectRegister(k, qubits, mm, noise.ReadoutFlip, r)]++
	}
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

// runTrajectory evolves one noisy shot and samples its measured register.
// serialSweeps pins the shot's gate sweeps to the calling goroutine (set
// when trajectories already run in parallel).
func runTrajectory(c *circuit.Circuit, noise NoiseModel, qubits []int, mm map[int]int, r *rng.Rand, serialSweeps bool) (uint64, bool, error) {
	paulis := [3]gates.Name{gates.X, gates.Y, gates.Z}
	st, err := NewState(c.NumQubits)
	if err != nil {
		return 0, false, err
	}
	st.noParallel = serialSweeps
	seenMeasure := false
	for idx, ins := range c.Instrs {
		switch ins.Op {
		case circuit.OpMeasure:
			seenMeasure = true
			continue
		case circuit.OpBarrier:
			continue
		}
		if seenMeasure {
			return 0, false, fmt.Errorf("sim: instruction %d follows a measurement", idx)
		}
		if err := applyInstruction(st, ins); err != nil {
			return 0, false, fmt.Errorf("sim: instruction %d: %w", idx, err)
		}
		if ins.Op != circuit.OpGate {
			continue
		}
		p := noise.Prob1Q
		if len(ins.Qubits) > 1 {
			p = noise.Prob2Q
		}
		if p == 0 {
			continue
		}
		for _, q := range ins.Qubits {
			if r.Float64() < p {
				m, err := gates.Unitary1(paulis[r.Intn(3)], nil)
				if err != nil {
					return 0, false, err
				}
				if err := st.Apply1(m, q); err != nil {
					return 0, false, err
				}
			}
		}
	}
	if len(mm) == 0 {
		return 0, false, nil
	}
	k := sampleIndex(st, r)
	return projectRegister(k, qubits, mm, noise.ReadoutFlip, r), true, nil
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
