package sim

import (
	"runtime"
	"sync"
)

// shardPool is the persistent executor behind every kernel sweep — plan
// execution and noise trajectories alike — and the sampling CDF build: P
// long-lived workers, each owning one contiguous shard of whatever index
// space the current step sweeps. Workers stay parked between steps instead
// of being respawned per kernel; do() broadcasts one step to every worker
// and returns when all have finished, which is the barrier between
// kernels.
//
// A pool with one shard runs every step inline on the caller's goroutine,
// so small states pay no synchronization at all.
type shardPool struct {
	shards int
	cmd    []chan shardStep
	done   chan struct{}
}

// shardStep is one barrier-to-barrier unit of work: fn is invoked on every
// worker with its contiguous slice [lo, hi) of [0, total).
type shardStep struct {
	total int
	fn    func(w, lo, hi int)
}

// newShardPool starts P workers (none for P = 1). Callers own the pool for
// the duration of one execution and must close() it to release the
// goroutines.
func newShardPool(shards int) *shardPool {
	if shards < 1 {
		shards = 1
	}
	p := &shardPool{shards: shards}
	if shards == 1 {
		return p
	}
	p.cmd = make([]chan shardStep, shards)
	p.done = make(chan struct{}, shards)
	for w := 0; w < shards; w++ {
		p.cmd[w] = make(chan shardStep, 1)
		go p.worker(w)
	}
	return p
}

func (p *shardPool) worker(w int) {
	for st := range p.cmd[w] {
		lo, hi := shardRange(st.total, p.shards, w)
		if lo < hi {
			st.fn(w, lo, hi)
		}
		p.done <- struct{}{}
	}
}

// do runs one step across all shards and waits for every worker to finish
// (the inter-kernel barrier). fn must treat [lo, hi) as exclusively owned;
// writes outside it race with other shards.
func (p *shardPool) do(total int, fn func(w, lo, hi int)) {
	if p.shards == 1 {
		fn(0, 0, total)
		return
	}
	st := shardStep{total: total, fn: fn}
	for _, c := range p.cmd {
		c <- st
	}
	for range p.cmd {
		<-p.done
	}
}

func (p *shardPool) close() {
	for _, c := range p.cmd {
		close(c)
	}
}

// shardRange returns worker w's contiguous slice of [0, total): the first
// total%shards workers take one extra element.
func shardRange(total, shards, w int) (lo, hi int) {
	base := total / shards
	rem := total % shards
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// resolveShards turns a requested shard count (0 = auto) into an effective
// one for an index space of the given size. Auto stays single-shard below
// parallelThreshold, where synchronization would dominate, and takes
// GOMAXPROCS above it. Explicit requests are honored (capped so every
// shard owns at least one amplitude pair) — the parity tests force
// multi-shard execution on tiny states this way.
func resolveShards(dim, requested int) int {
	maxShards := dim / 2
	if maxShards < 1 {
		maxShards = 1
	}
	if requested <= 0 {
		if dim < parallelThreshold {
			return 1
		}
		requested = runtime.GOMAXPROCS(0)
	}
	if requested > maxShards {
		requested = maxShards
	}
	return requested
}

// parallelSum is the fork-join reduction used by the one-shot State
// methods (Norm, ExpectationDiagonal): shard partials are summed in shard
// order, so the result is deterministic for a fixed GOMAXPROCS.
func parallelSum(n int, f func(lo, hi int) float64) float64 {
	if n < parallelThreshold {
		return f(0, n)
	}
	shards := resolveShards(n, 0)
	if shards == 1 {
		return f(0, n)
	}
	partials := make([]float64, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo, hi := shardRange(n, shards, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partials[w] = f(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0.0
	for _, p := range partials {
		total += p
	}
	return total
}
