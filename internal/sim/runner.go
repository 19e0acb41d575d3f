package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// cdfBlock is the fixed accumulation block of the sampling CDF build.
// Block boundaries — not shard boundaries — define the float summation
// order, so sampled counts are bit-identical across shard counts.
const cdfBlock = 4096

// Runner executes plans of one qubit count on resources it keeps between
// runs: the shard pool, the two aligned amplitude planes (with the
// State's lazily allocated staging planes), the sampling CDF and its
// per-block scratch. Every run starts by resetting the planes to |0…0⟩
// on the pool — the same shard-owned clear a fresh state gets as its
// first touch — so a reused Runner and a new one execute identical code
// on identical data: amplitudes and counts do not depend on what ran
// before. Run and RunPlan are "new Runner, run once, Close"; a caller
// with many plans of one width (a sweep lane) keeps its Runner and pays
// the 2^n allocations once.
//
// A Runner is not safe for concurrent use; give each goroutine its own.
type Runner struct {
	n    int
	pool *shardPool
	// st is nil until the first run and after a KeepState run handed the
	// state to its Result.
	st *State
	// cdf holds 2^n prefix sums; blockSum and blockLast one entry per
	// cdfBlock. All three are fully overwritten by every buildCDF.
	cdf       []float64
	blockSum  []float64
	blockLast []int
}

// NewRunner returns a Runner for n-qubit plans sweeping over the given
// number of shards (0 = auto, as Options.Shards). Close releases the
// pool's workers.
func NewRunner(n, shards int) (*Runner, error) {
	r, err := newRunner(n, shards)
	return &r, err
}

// newRunner returns the Runner by value, so a caller that uses it within
// one function (RunPlan) keeps it off the heap.
func newRunner(n, shards int) (Runner, error) {
	if n < 1 || n > MaxQubits {
		return Runner{}, fmt.Errorf("sim: qubit count %d out of [1,%d]", n, MaxQubits)
	}
	return Runner{n: n, pool: newShardPool(resolveShards(1<<uint(n), shards))}, nil
}

// Close stops the Runner's shard workers. Results already returned stay
// valid.
func (r *Runner) Close() { r.pool.close() }

// reset returns the Runner's state as |0…0⟩, allocating the planes on
// first use. Each shard clears exactly the contiguous range of re and im
// it will sweep for the rest of the run: for fresh planes that is their
// first touch, so on NUMA systems with first-touch page placement every
// shard's pages land on the memory node of the core that streams them
// (best-effort — the Go allocator may hand back an already-touched span,
// whose pages keep their prior placement); for reused planes it is the
// whole cost of reuse, one streaming write of 16·2^n bytes.
func (r *Runner) reset() (*State, error) {
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

// Run executes pl from |0…0⟩ and samples opts.Shots shots over the
// classical register c's measurements define. pl must have been compiled
// from c or from a bound copy of it. opts.Shards is ignored (see
// NewRunner). With opts.KeepState the Result takes the state and the
// Runner allocates new planes on its next run.
func (r *Runner) Run(c *circuit.Circuit, pl *Plan, opts Options) (*Result, error) {
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
	var prof *execProfiler
	if opts.Profile {
		prof = newExecProfiler(r.pool.shards, len(pl.kernels))
	}
	stageStart := time.Now()
	if err := pl.executeOn(st, r.pool, prof); err != nil {
		return nil, err
	}
	observeStage(simExecute, opts.Stages, "execute", stageStart)
	res := &Result{Counts: Counts{}, Shots: opts.Shots}
	if opts.KeepState {
		res.Final, r.st = st, nil
	}
	if prof != nil {
		res.Profile = prof.finish()
	}
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

	draws := rng.New(opts.Seed)
	for shot := 0; shot < opts.Shots; shot++ {
		k := sampleCDF(cdf, lastPos, draws.Float64()*acc)
		res.Counts[projectRegister(k, qubits, mm, 0, nil)]++
	}
	observeStage(simSample, opts.Stages, "sample", stageStart)
	return res, nil
}

// buildCDF computes the inclusive prefix sums of st's Born distribution
// into the Runner's CDF buffer (valid until the next call), the total
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
func (r *Runner) buildCDF(st *State) (_ []float64, acc float64, lastPos int) {
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
