// What is particular to a grid of points: the shape check of a sweep
// submission, binding the template's grid into concrete bundles and their
// cache keys, grouping points with equal keys, and how a grant splits into
// lanes — all of it used by the one executor, Pool.runJob, for which a
// plain job is a grid of one point — plus the sweep result routes.

package jobs

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bundle"
	"repro/internal/result"
	"repro/internal/sim"
)

// MaxSweepPoints bounds one sweep submission's parameter grid.
const MaxSweepPoints = 4096

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

// PlainJob validates the shape of a plain submission: a bundle with no
// sweep block. A sweep bundle goes to SubmitSweep; taken as a plain job it
// would run under its template's key, the key its sweep holds, and the one
// result stored there could then answer for the whole grid.
func PlainJob(b *bundle.Bundle) error {
	if b == nil {
		return fmt.Errorf("jobs: nil bundle")
	}
	if b.Context != nil && b.Context.Sweep != nil {
		return fmt.Errorf("%w: the bundle carries a sweep block; submit it to POST /v1/sweeps", ErrIsSweep)
	}
	return nil
}

// SubmitSweep registers a sweep bundle — a bundle whose context carries a
// sweep block — as ONE job, through the same admission as Submit: the
// template's key is never a result's, so the job is never born done, but an
// identical sweep already running absorbs it as a coalesced twin. A
// saturated queue rejects with ErrQueueFull.
func (p *Pool) SubmitSweep(b *bundle.Bundle, o SubmitOptions) (Status, error) {
	n, err := SweepPoints(b)
	if err != nil {
		return Status{}, err
	}
	return p.submit(b, o, n)
}

// bindGrid materializes every point of a sweep template and derives its
// content address: each key is CacheKey of the concrete bundle a standalone
// submission of that point would carry, profiled like the sweep, which is
// what lets sweep points and individual jobs share one result cache.
func bindGrid(b *bundle.Bundle, profile bool) ([]*bundle.Bundle, []string, error) {
	points := b.Context.Sweep.Points
	concrete, keys := make([]*bundle.Bundle, len(points)), make([]string, len(points))
	for i, pt := range points {
		var err error
		if concrete[i], err = b.BindPoint(pt); err != nil {
			return nil, nil, err
		}
		if keys[i], err = CacheKey(concrete[i]); err != nil {
			return nil, nil, err
		}
		keys[i] = profiledKey(keys[i], profile)
	}
	return concrete, keys, nil
}

// twinsOf groups points by key: the first index with a key owns it, and
// the later ones are its twins, served by whatever serves the owner. A
// grid of one point has no twins, and needs no map to say so.
func twinsOf(keys []string) (owners []int, twins map[int][]int) {
	if len(keys) == 1 {
		return []int{0}, nil
	}
	owner := make(map[string]int, len(keys))
	twins = map[int][]int{}
	for i, k := range keys {
		if o, dup := owner[k]; dup {
			twins[o] = append(twins[o], i)
		} else {
			owner[k] = i
			owners = append(owners, i)
		}
	}
	return owners, twins
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
	_, results, err := p.doneResults(id, true)
	return slices.Clone(results), err
}

// WriteSweepResult is SweepResult as the encoded SweepResultDoc, its head
// snapshotted in the same critical section as the results (a recovered
// sweep's aggregated profile materializes with them) and its points
// written to w as they are encoded.
func (p *Pool) WriteSweepResult(_ context.Context, w io.Writer, id string) error {
	st, results, err := p.doneResults(id, true)
	if err != nil {
		return err
	}
	return writeSweepResultDoc(w, NewSweepResultDoc(st), results)
}
