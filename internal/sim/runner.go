package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// cdfBlock is the fixed accumulation block of the sampling CDF build.
// Block boundaries — not shard boundaries — define the float summation
// order, so sampled counts are bit-identical across shard counts.
const cdfBlock = 4096

// runner executes plans of one qubit count: the shard pool, the two
// aligned amplitude planes (with the State's lazily allocated staging
// planes), the sampling CDF and its per-block scratch. Every run starts
// by resetting the planes to |0…0⟩ on the pool — the same shard-owned
// clear a fresh state gets as its first touch — so a reused arena and a
// new one execute identical code on identical data: amplitudes and counts
// do not depend on what ran before. Every sampled run — Run, RunPlan and
// a readout-only RunNoisy — builds a runner on a spare arena of its
// width (runPlan), runs once and leaves the arena for the next run; the
// trajectory workers' runners keep their arenas to themselves.
//
// A runner is not safe for concurrent use; give each goroutine its own.
type runner struct {
	n    int
	pool *shardPool
	arena
}

// arena is what a runner holds that grows with the state.
type arena struct {
	// st is nil until the first run.
	st *State
	// cdf holds 2^n prefix sums; blockSum and blockLast one entry per
	// cdfBlock. All three are fully overwritten by every buildCDF.
	cdf       []float64
	blockSum  []float64
	blockLast []int
}

// spareArenas holds, per qubit count, the arenas runPlan's runners leave
// when they close. The next runPlan of that width starts with one, and
// NewState takes its state, so back-to-back runs (every plain job, every
// readout-only noisy job and every point of a sweep lane) and a NewState
// after a run sweep warm pages instead of faulting in and zeroing 24·2^n
// fresh bytes. Trajectory workers' runners neither take nor leave one. A
// sync.Pool drops what nobody took within two garbage collections, so an
// idle width holds no memory for long.
var spareArenas [MaxQubits + 1]sync.Pool

// spareArena returns a closed runner's arena for n qubits, or nil.
func spareArena(n int) *arena {
	a, _ := spareArenas[n].Get().(*arena)
	return a
}

// newRunner returns a runner for n-qubit plans sweeping over the given
// number of shards (0 = auto, as Options.Shards), by value, so a caller
// that uses it within one function (RunPlan) keeps it off the heap. Close
// releases the pool's workers.
func newRunner(n, shards int) (runner, error) {
	if n < 1 || n > MaxQubits {
		return runner{}, fmt.Errorf("sim: qubit count %d out of [1,%d]", n, MaxQubits)
	}
	return runner{n: n, pool: newShardPool(resolveShards(1<<uint(n), shards))}, nil
}

// Close stops the runner's shard workers and returns once they have
// exited. Results already returned stay valid.
func (r *runner) Close() { r.pool.close() }

// closeToSpare closes the runner and leaves its arena in spareArenas.
func (r *runner) closeToSpare() {
	r.Close()
	if r.st != nil || r.cdf != nil {
		a := r.arena
		spareArenas[r.n].Put(&a)
		r.arena = arena{}
	}
}

// reset returns the runner's state as |0…0⟩, allocating the planes on
// first use. Each shard clears exactly the contiguous range of re and im
// it will sweep for the rest of the run: for fresh planes that is their
// first touch, so on NUMA systems with first-touch page placement every
// shard's pages land on the memory node of the core that streams them
// (best-effort — the Go allocator may hand back an already-touched span,
// and a spare arena is already touched, whose pages keep their prior
// placement); for reused planes it is the whole cost of reuse, one
// streaming write of 16·2^n bytes.
func (r *runner) reset() (*State, error) {
	if r.st == nil {
		st, err := newStateUninit(r.n)
		if err != nil {
			return nil, err
		}
		r.st = st
	}
	re, im := r.st.re, r.st.im
	r.pool.do(len(re), func(_, lo, hi int) {
		clear(re[lo:hi])
		clear(im[lo:hi])
	})
	re[0] = 1
	return r.st, nil
}

// readout is a readout-only noise run's sampling: shot s draws its
// outcome from streams[s], unscaled, and then, on the same stream, flips
// each measured bit with probability flip (see projectRegister). This is
// the draw order a full trajectory gives each shot, so RunNoisy's counts
// for a model without gate errors are those of its trajectories.
type readout struct {
	streams []*rng.Rand
	flip    float64
}

// Run executes pl from |0…0⟩ and samples opts.Shots shots over the
// classical register c's measurements define. pl must have been compiled
// from c or from a bound copy of it. opts.Shards is ignored (see
// newRunner). With ro nil every shot draws from one stream seeded by
// opts.Seed, scaled by the CDF's total mass; with ro set shot s draws
// from ro.streams[s], which must hold opts.Shots streams, unscaled — an
// unscaled draw u is u·1.0 exactly, and the clamp in sampleCDF catches a
// u beyond the drifted top of the distribution.
func (r *runner) Run(c *circuit.Circuit, pl *Plan, opts Options, ro *readout) (*Result, error) {
	if opts.Shots < 0 {
		return nil, fmt.Errorf("sim: negative shot count %d", opts.Shots)
	}
	if pl.n != r.n || c.NumQubits != r.n {
		return nil, fmt.Errorf("sim: runner holds %d qubits, plan has %d, circuit %d", r.n, pl.n, c.NumQubits)
	}
	st, err := r.reset()
	if err != nil {
		return nil, err
	}
	stageStart := time.Now()
	prof, err := pl.executeOn(st, r.pool, opts.Profile)
	if err != nil {
		return nil, err
	}
	observeStage(simExecute, opts.Stages, "execute", stageStart)
	res := &Result{Counts: Counts{}, Shots: opts.Shots, Profile: prof}
	mm := c.MeasureMap()
	if len(mm) == 0 || opts.Shots == 0 {
		return res, nil
	}

	stageStart = time.Now()
	cdf, acc, lastPos := r.buildCDF(st)

	qubits := make([]int, 0, len(mm))
	for q := range mm {
		qubits = append(qubits, q)
	}
	sort.Ints(qubits)

	draws, scale, flip := rng.New(opts.Seed), acc, 0.0
	if ro != nil {
		scale, flip = 1, ro.flip
	}
	for shot := 0; shot < opts.Shots; shot++ {
		if ro != nil {
			draws = ro.streams[shot]
		}
		k := sampleCDF(cdf, lastPos, draws.Float64()*scale)
		res.Counts[projectRegister(k, qubits, mm, flip, draws)]++
	}
	observeStage(simSample, opts.Stages, "sample", stageStart)
	return res, nil
}

// buildCDF computes the inclusive prefix sums of st's Born distribution
// into the runner's CDF buffer (valid until the next call), the total
// mass, and the index of the last basis state with positive probability.
// The prefix sum builds over the shard pool in fixed-size blocks: each
// block's probability mass sums left to right with the per-amplitude
// probabilities stashed into the cdf slice (computed exactly once — the
// second pass reads them back instead of re-deriving |amp|² for the whole
// state again), block offsets accumulate serially, and each block then
// overwrites its cdf slice with the running prefix from its exact offset.
// Because the block boundaries do not depend on the shard count, the
// float associativity — and therefore every sampled count — is
// bit-identical for any parallelism grant: the shard count is a
// scheduling decision, never a result change (the jobs result cache
// dedups on bundle+shots+seed alone and relies on this).
func (r *runner) buildCDF(st *State) (_ []float64, acc float64, lastPos int) {
	dim := st.Dim()
	nBlocks := (dim + cdfBlock - 1) / cdfBlock
	if len(r.cdf) != dim {
		r.cdf = make([]float64, dim)
		r.blockSum = make([]float64, nBlocks)
		r.blockLast = make([]int, nBlocks)
	}
	cdf, blockSum, blockLast := r.cdf, r.blockSum, r.blockLast
	re, im := st.re, st.im
	r.pool.do(nBlocks, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			sum := 0.0
			last := -1
			base, end := b*cdfBlock, min((b+1)*cdfBlock, dim)
			// Equal-length block slices over the split planes: |amp|² is
			// the same expression, and the same float grouping, as
			// State.Probability, so the CDF — and every sampled count —
			// is unchanged by reading the planes directly.
			rr, ii := re[base:end], im[base:end:end]
			out := cdf[base:end:end]
			for k := range rr {
				p := rr[k]*rr[k] + ii[k]*ii[k]
				out[k] = p
				sum += p
				if p > 0 {
					last = base + k
				}
			}
			blockSum[b] = sum
			blockLast[b] = last
		}
	})
	for b, s := range blockSum {
		blockSum[b] = acc // reuse as the block's starting offset
		acc += s
	}
	for b := nBlocks - 1; b >= 0; b-- {
		if blockLast[b] >= 0 {
			lastPos = blockLast[b]
			break
		}
	}
	r.pool.do(nBlocks, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			run := blockSum[b]
			for i := b * cdfBlock; i < min((b+1)*cdfBlock, dim); i++ {
				run += cdf[i]
				cdf[i] = run
			}
		}
	})
	return cdf, acc, lastPos
}
