// Sweep jobs: one submission carrying a parameter grid that occupies one
// queue slot, journals as one record, and fans out per point inside a
// single worker turn. The template bundle's sweep context block (params +
// points) stays attached to the job; every point is materialized with
// bundle.BindPoint into exactly the concrete bundle a caller would have
// submitted for that point alone, so per-point cache keys, fingerprints
// and counts are bit-identical to individual submissions. Points whose
// concrete twin already has a cached or on-disk result are served from it
// without execution; the rest run on lanes over one runtime.PrepareSweep
// handle, which compiles the parametric plan once and binds per point.

package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bundle"
	"repro/internal/jobs/store"
	"repro/internal/obs"
	"repro/internal/result"
	rt "repro/internal/runtime"
	"repro/internal/sim"
)

// MaxSweepPoints bounds one sweep submission's parameter grid.
const MaxSweepPoints = 4096

// sweepState is the per-point progress of a sweep job. All fields are
// guarded by Pool.mu; the lanes of the worker running the sweep are the
// only writers, so once they have returned that worker may read what they
// wrote without the lock.
type sweepState struct {
	// keys holds the per-point result content addresses in point order
	// (each equals CacheKey of that point's materialized bundle).
	keys []string
	// results holds the per-point results in point order; entries fill in
	// as points complete. nil for jobs recovered from the journal — their
	// results lazy-load from the store by key on first SweepResult call.
	results   []*result.Result
	completed int
}

// pointDoneLocked publishes one completed point: its result, the progress
// count and a revision bump for progress watchers. Callers hold Pool.mu.
func (j *job) pointDoneLocked(i int, res *result.Result) {
	j.sweep.results[i] = res
	j.sweep.completed++
	j.Touch()
}

// SweepPoints validates the shape of a sweep submission — a sweep block
// with between one and MaxSweepPoints points — and returns the grid size.
func SweepPoints(b *bundle.Bundle) (int, error) {
	if b == nil {
		return 0, fmt.Errorf("%w: nil bundle", ErrBadSweep)
	}
	if b.Context == nil || b.Context.Sweep == nil {
		return 0, fmt.Errorf("%w: submission without a sweep context block", ErrBadSweep)
	}
	n := len(b.Context.Sweep.Points)
	if n == 0 {
		return 0, fmt.Errorf("%w: no points", ErrBadSweep)
	}
	if n > MaxSweepPoints {
		return 0, fmt.Errorf("%w: %d points, max %d", ErrBadSweep, n, MaxSweepPoints)
	}
	return n, nil
}

// SubmitSweep registers a sweep bundle — a bundle whose context carries a
// sweep block — as ONE job and enqueues it, returning its snapshot once
// the submitted line met the journal's fsync policy. Unlike Submit there
// is no whole-sweep result cache or in-flight coalescing (the per-point
// caches below it make re-running a sweep cheap anyway); a saturated queue
// still rejects with ErrQueueFull.
func (p *Pool) SubmitSweep(b *bundle.Bundle, o SubmitOptions) (Status, error) {
	n, err := SweepPoints(b)
	if err != nil {
		return Status{}, err
	}
	j, submitted, err := p.prepare(b, o, n)
	if err != nil {
		return Status{}, err
	}
	j.sweep = &sweepState{}
	submitted.Note = fmt.Sprintf("sweep points=%d", n)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return Status{}, ErrClosed
	}
	if len(p.pending) >= p.opts.QueueDepth {
		p.met.rejected.Inc()
		p.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	p.Add(j, submitted)
	p.pending = append(p.pending, j)
	p.met.submitted.Inc()
	p.met.sweeps.Inc()
	obs.Record(obs.FlightJobQueued, j.ID, submitted.Note)
	p.log.Info("sweep queued", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "points", n)
	p.cond.Signal()
	st := p.Snapshot(j)
	p.mu.Unlock()
	p.Commit(j) // the 202 waits for the submitted line, with the pool unlocked
	return st, nil
}

// sweepLanes splits a sweep's core grant over the points it still has to
// execute: as many concurrent lanes as the grant and the work allow, each
// lane sweeping its state over grant/lanes shards, so lanes × shards never
// exceeds the grant. Points are independent and a small state gains little
// from sharding (every kernel ends in a barrier), so cores go to whole
// points first; a lone point, or a grant of one, degenerates to one lane.
// The one rule that narrows the lanes is footprint: together they never
// hold more resident amplitudes than the largest single job the engine
// admits, lanes · 2^qubits ≤ 2^sim.MaxQubits.
func sweepLanes(grant, points, qubits int) (lanes, shards int) {
	lanes = max(1, min(grant, points, 1<<max(0, sim.MaxQubits-qubits)))
	return lanes, max(1, grant/lanes)
}

// runSweepJob executes a sweep job on the worker goroutine that dequeued
// it: materialize every point, serve points whose concrete twin already
// has a result from the memory or disk cache, prepare the rest once
// (runtime.PrepareSweep: validate, lower, transpile, compile the template)
// and run them on lanes — goroutines that each pull the next missing point
// from a shared counter, execute it, persist its result under its
// per-point content address and publish it — then journal ONE terminal
// event whose Results field lists every address in point order. Points
// complete in no particular order; the first failure stops every lane.
func (p *Pool) runSweepJob(j *job) {
	p.mu.Lock()
	if j.State != StateQueued { // canceled while queued
		p.mu.Unlock()
		return
	}
	// Same shard grant policy as plain jobs. How the grant splits into
	// lanes × shards is decided below, once the points to execute are known.
	granted := p.grantLocked(j)
	b := j.bundle
	sw := b.Context.Sweep
	n := len(sw.Points)
	qubits := 0
	for _, d := range b.QDTs {
		qubits += d.Width
	}
	j.Points = n
	j.sweep.keys = make([]string, n)
	j.sweep.results = make([]*result.Result, n)
	// The split announced here is the plan for a grid with nothing cached;
	// the "executed" span carries the one that ran.
	lanes, shards := sweepLanes(granted, n, qubits)
	started, note := time.Now(), fmt.Sprintf("sweep points=%d lanes=%d shards=%d", n, lanes, shards)
	_ = p.Transition(j, StateRunning, Detail{At: started, Dur: started.Sub(j.Submitted), Note: note})
	p.met.queueWait.Observe(started.Sub(j.Submitted))
	obs.Record(obs.FlightJobRunning, j.ID, note)
	p.log.Info("sweep started", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "points", n, "shards", granted)
	// No per-stage span callback: a sweep would log stage spans per point
	// and drown the lifecycle log; the coarse spans below cover it.
	runOpts := rt.Options{Profile: j.Profile}
	p.mu.Unlock()

	// Materialize every point and derive its content address off-lock.
	// Each key equals CacheKey of the concrete bundle a standalone
	// submission of that point would carry, which is what lets sweep
	// points and individual jobs share one result cache.
	bindStart := time.Now()
	concrete := make([]*bundle.Bundle, n)
	keys := make([]string, n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		if concrete[i], err = b.BindPoint(sw.Points[i]); err == nil {
			if keys[i], err = CacheKey(concrete[i]); err == nil {
				// Same keying rule as standalone submissions: a profiled
				// sweep's points share the cache with profiled single jobs.
				keys[i] = profiledKey(keys[i], j.Profile)
			}
		}
	}

	// Points with equal keys are one piece of work: the first index with a
	// key owns it, and whatever serves the owner serves its twins.
	var owners, fromMem, miss []int
	twins := map[int][]int{}
	// publishLocked completes point i and its twins with res. Callers hold
	// p.mu. A twin is a cache hit in all but name: served without executing.
	publishLocked := func(i int, res *result.Result) {
		j.pointDoneLocked(i, res)
		for _, t := range twins[i] {
			j.pointDoneLocked(t, copyResult(res))
			p.met.cacheHits.Inc()
		}
	}
	if err == nil {
		owner := make(map[string]int, n)
		for i, k := range keys {
			if o, dup := owner[k]; dup {
				twins[o] = append(twins[o], i)
			} else {
				owner[k] = i
				owners = append(owners, i)
			}
		}
		p.mu.Lock()
		copy(j.sweep.keys, keys)
		j.Span("materialized", time.Since(bindStart), fmt.Sprintf("points=%d", n))
		for _, i := range owners {
			if p.cache != nil {
				if res, ok := p.cache.get(keys[i]); ok {
					publishLocked(i, res)
					p.met.cacheHits.Inc()
					fromMem = append(fromMem, i)
					continue
				}
			}
			miss = append(miss, i)
		}
		p.mu.Unlock()
		if p.opts.Store != nil {
			// Second-level lookup: a point's result may live on disk (from
			// a previous process life) without being in the memory LRU.
			still := miss[:0]
			for _, i := range miss {
				res, ok, derr := p.opts.Store.GetResult(keys[i])
				if derr != nil || !ok {
					still = append(still, i)
					continue
				}
				p.mu.Lock()
				publishLocked(i, res)
				if p.cache != nil {
					p.cache.put(keys[i], res)
				}
				p.mu.Unlock()
				p.met.diskHits.Inc()
			}
			miss = still
		}
	}

	if err == nil && len(miss) > 0 {
		execStart := time.Now()
		lanes, shards = sweepLanes(granted, len(miss), qubits)
		runOpts.Shards = shards
		var sweep *rt.Sweep
		if sweep, err = rt.PrepareSweep(b, runOpts); err == nil {
			err = runLanes(lanes, miss, func(i int) error {
				res, err := sweep.Point(i, concrete[i])
				if err != nil {
					return err
				}
				// Persist before publishing, so the terminal journal event's
				// Results list never references a missing result. PutResult is
				// lock-free by design; the cache is not — it needs p.mu.
				if p.opts.Store != nil {
					//lint:ignore journalerr persistence failures count in store_journal_errors_total; the sweep degrades to in-memory results rather than failing
					_ = p.opts.Store.PutResult(keys[i], res)
				}
				p.mu.Lock()
				publishLocked(i, res)
				if p.cache != nil {
					p.cache.put(keys[i], res)
				}
				p.mu.Unlock()
				return nil
			})
			sweep.Close()
		}
		p.mu.Lock()
		j.Span("executed", time.Since(execStart), fmt.Sprintf("points=%d cached=%d lanes=%d shards=%d", len(miss), n-len(miss), lanes, shards))
		p.mu.Unlock()
	}
	if err == nil && p.opts.Store != nil {
		// Backfill points served from the memory cache whose results an
		// earlier process life never persisted (mirrors the single-job
		// cache-hit backfill), so the done record below is self-contained.
		// Every other point was just written to, or read from, the store.
		for _, i := range fromMem {
			if !p.opts.Store.HasResult(keys[i]) {
				//lint:ignore journalerr best-effort backfill; failures count in store_journal_errors_total and the result stays served from memory
				_ = p.opts.Store.PutResult(keys[i], j.sweep.results[i])
			}
		}
	}

	p.mu.Lock()
	finished := time.Now()
	run := finished.Sub(started)
	p.running--
	p.met.runTime.Observe(run)
	if err != nil {
		p.finishLocked(j, StateFailed, Detail{At: finished, Dur: run, Err: err})
		p.met.failed.Inc()
		obs.Record(obs.FlightJobFailed, j.ID, err.Error())
		p.log.Warn("sweep failed", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "err", err)
	} else {
		j.CacheHit = len(miss) == 0 // every point served without execution
		if j.Profile {
			j.ProfileDoc = aggregateSweepProfiles(j.sweep.results)
		}
		p.finishLocked(j, StateDone, Detail{At: finished, Dur: run, Note: fmt.Sprintf("points=%d", n), Ev: store.Event{Results: keys}})
		p.met.completed.Inc()
		p.met.sweepPoints.Add(uint64(n))
		obs.RecordDur(obs.FlightJobDone, j.ID, fmt.Sprintf("sweep points=%d", n), run)
		p.log.Info("sweep done", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "points", n, "run_ms", run.Milliseconds())
	}
	p.mu.Unlock()
}

// runLanes calls point(i) once for every i in work, on lanes goroutines
// that each pull the next index from a shared counter, and returns the
// first error; after an error no lane starts another point. The caller is
// lane zero, so lanes goroutines run, not lanes+1.
func runLanes(lanes int, work []int, point func(i int) error) error {
	var (
		next   atomic.Int64 // position in work of the next point to take
		failed atomic.Bool
		first  error // written by the lane that sets failed, read after wg.Wait
		wg     sync.WaitGroup
	)
	lane := func() {
		defer wg.Done()
		for !failed.Load() {
			k := int(next.Add(1)) - 1
			if k >= len(work) {
				return
			}
			if err := point(work[k]); err != nil {
				if failed.CompareAndSwap(false, true) {
					first = err
				}
				return
			}
		}
	}
	wg.Add(lanes)
	for l := 1; l < lanes; l++ {
		go lane()
	}
	lane()
	wg.Wait()
	return first
}

// SweepResult returns the per-point results of a done sweep job, indexed
// by point order. A queued or running sweep returns ErrNotFinished; a
// failed sweep returns its execution error; a plain job ErrNotSweep. Jobs
// recovered from the journal hold only the per-point content addresses;
// their results load from the store on first access.
func (p *Pool) SweepResult(id string) ([]*result.Result, error) {
	_, results, err := p.sweepResult(id)
	return results, err
}

// WriteSweepResult is SweepResult as the encoded SweepResultDoc, its head
// snapshotted in the same critical section as the results (a recovered
// sweep's aggregated profile materializes with them) and its points
// written to w as they are encoded.
func (p *Pool) WriteSweepResult(_ context.Context, w io.Writer, id string) error {
	st, results, err := p.sweepResult(id)
	if err != nil {
		return err
	}
	return writeSweepResultDoc(w, NewSweepResultDoc(st), results)
}

// sweepResult does the work of SweepResult and also returns the sweep's
// snapshot. The per-point files of a recovered sweep are read and decoded
// with the pool unlocked — a grid is up to MaxSweepPoints files of a
// millisecond each — from the addresses snapshotted under the lock (a done
// sweep's never change). Concurrent first readers may each load them; the
// first to come back installs its results, and the aggregated profile, for
// everyone.
func (p *Pool) sweepResult(id string) (Status, []*result.Result, error) {
	p.mu.Lock()
	j, err := p.Get(id)
	if err == nil && j.sweep == nil {
		err = fmt.Errorf("%w: %q", ErrNotSweep, id)
	}
	if err == nil {
		err = NotDoneError(id, j.State, j.Err)
	}
	if err == nil && j.sweep.results == nil && p.opts.Store == nil {
		err = fmt.Errorf("jobs: sweep results for %q are gone (no store attached)", id)
	}
	if err != nil {
		p.mu.Unlock()
		return Status{}, nil, err
	}
	if j.sweep.results == nil {
		keys, profiled := j.sweep.keys, j.Profile && j.ProfileDoc == nil
		p.mu.Unlock()
		loaded := make([]*result.Result, len(keys))
		for i, k := range keys {
			res, ok, err := p.opts.Store.GetResult(k)
			if err != nil {
				return Status{}, nil, err
			}
			if !ok {
				return Status{}, nil, fmt.Errorf("jobs: result of %q point %d (%s) is gone from the store", id, i, k)
			}
			loaded[i] = res
		}
		var profile json.RawMessage
		if profiled {
			profile = aggregateSweepProfiles(loaded)
		}
		p.mu.Lock()
		if j.sweep.results == nil {
			j.sweep.results = loaded
			if profiled {
				j.attachProfile(profile)
			}
		}
	}
	st, results := p.Snapshot(j), slices.Clone(j.sweep.results)
	p.mu.Unlock()
	return st, results, nil
}
