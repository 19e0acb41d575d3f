// Sweep scatter: the dispatcher accepts a parameter-sweep bundle as ONE
// job, splits its point grid into contiguous ranges — one per healthy
// worker — and forwards each range to its worker as an independent
// sub-sweep bundle (the template with Context.Sweep.Points sliced).
// Each range has its own watcher; when a worker dies mid-sweep only its
// unfinished ranges re-forward, finished ranges keep their results where
// they are. GET /v1/sweeps/{id} merges the per-range result sets back
// into one globally indexed set. Because BindPoint strips the sweep
// block before fingerprinting, a point bound from a sub-range template
// is bit-identical — counts, cache key, intent fingerprint — to the same
// point bound from the full template, which is what makes the scattered
// result set indistinguishable from a single-node sweep.

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/obs"
	"repro/internal/qop"
)

// sweepRange is one contiguous slice [from,to) of the point grid,
// forwarded to a worker as an independent sub-sweep. Mutable fields are
// guarded by Dispatcher.mu.
type sweepRange struct {
	from, to   int
	raw        json.RawMessage // sub-sweep bundle for this range
	prefer     string          // scatter-time worker choice, for initial spread
	worker     string          // owning node ("" while unassigned)
	remote     string          // sweep job ID on that node
	remoteRev  uint64          // sub-sweep's revision as last reported by that node
	avoid      string          // node to skip on the next forward
	forwards   int
	pointsDone int // remote progress, range-local
	done       bool
	failed     bool
	errMsg     string
	// profile is the worker's per-kind kernel profile for this range's
	// sub-sweep, captured opaquely when the range completes (profiled
	// submissions only).
	profile json.RawMessage
}

// stateLocked names the range's lifecycle phase for status documents.
// Callers hold Dispatcher.mu.
func (r *sweepRange) stateLocked() string {
	switch {
	case r.failed:
		return "failed"
	case r.done:
		return "done"
	case r.worker != "":
		return "running"
	default:
		return "queued"
	}
}

// pointsDoneLocked is the range-local completed-point count. Callers
// hold Dispatcher.mu.
func (r *sweepRange) pointsDoneLocked() int {
	if r.done {
		return r.to - r.from
	}
	return r.pointsDone
}

// sweepScatter is the dispatcher-side state of one sweep job. ranges is
// nil until runSweep scatters (and stays nil for terminal records
// recovered from the journal — their per-range assignments are not
// retained, only the merged outcome).
type sweepScatter struct {
	points int
	ranges []*sweepRange
}

// pointsDoneLocked sums per-range progress. Callers hold Dispatcher.mu.
func (s *sweepScatter) pointsDoneLocked() int {
	n := 0
	for _, r := range s.ranges {
		n += r.pointsDoneLocked()
	}
	return n
}

// mergedProfileLocked folds the per-range worker profile documents into
// one fleet-wide per-kind table, byte-compatible with a single worker's
// aggregated sweep profile. Nil until at least one range reported a
// profile (i.e. always nil for unprofiled sweeps). Callers hold
// Dispatcher.mu.
func (s *sweepScatter) mergedProfileLocked() json.RawMessage {
	var out jobs.SweepProfileDoc
	idx := map[string]int{}
	seen := false
	for _, r := range s.ranges {
		if len(r.profile) == 0 {
			continue
		}
		var doc jobs.SweepProfileDoc
		if err := json.Unmarshal(r.profile, &doc); err != nil {
			continue
		}
		seen = true
		out.Points += doc.Points
		out.PointsProfiled += doc.PointsProfiled
		out.TotalNs += doc.TotalNs
		for _, k := range doc.Kinds {
			i, ok := idx[k.Kind]
			if !ok {
				i = len(out.Kinds)
				idx[k.Kind] = i
				out.Kinds = append(out.Kinds, k)
				continue
			}
			out.Kinds[i].Kernels += k.Kernels
			out.Kinds[i].Ns += k.Ns
		}
	}
	if !seen {
		return nil
	}
	sort.Slice(out.Kinds, func(i, j int) bool { return out.Kinds[i].Ns > out.Kinds[j].Ns })
	raw, err := json.Marshal(out)
	if err != nil {
		return nil
	}
	return raw
}

// SubmitSweep accepts a parameter-sweep bundle as one dispatched job.
// o.Shards and o.Profile are forwarded with every range's sub-sweep; the
// workers' per-kind kernel tables merge back into this job's status
// document.
func (d *Dispatcher) SubmitSweep(b *bundle.Bundle, o jobs.SubmitOptions) (jobs.Status, error) {
	n, err := jobs.SweepPoints(b)
	if err != nil {
		return jobs.Status{}, err
	}
	return d.accept(b, o, n)
}

// runSweep owns one sweep's scatter-and-watch lifecycle. Called from
// runJob, which holds the WaitGroup slot and supplies the runner context
// (ends on dispatcher stop or the job turning terminal).
func (d *Dispatcher) runSweep(ctx context.Context, j *fwdJob) {
	tmpl, err := bundle.FromJSON(j.raw, qop.ValidateOptions{AllowMidCircuit: d.opts.AllowMidCircuit})
	if err != nil {
		d.failSweep(j, fmt.Sprintf("fleet: sweep template: %v", err))
		return
	}
	points := tmpl.Context.Sweep.Points

	// Scatter over however many workers are healthy right now; with none
	// reachable, wait — the journal already holds the job.
	var names []string
	for {
		if ctx.Err() != nil {
			return
		}
		if names = d.healthyNames(); len(names) > 0 {
			break
		}
		sleep(ctx, d.opts.ProbeInterval)
	}
	k := len(names)
	if k > len(points) {
		k = len(points)
	}
	ranges := make([]*sweepRange, 0, k)
	per, extra := len(points)/k, len(points)%k
	from := 0
	for i := 0; i < k; i++ {
		to := from + per
		if i < extra {
			to++
		}
		sub, err := subSweepRaw(tmpl, from, to)
		if err != nil {
			d.failSweep(j, fmt.Sprintf("fleet: slice sweep range [%d,%d): %v", from, to, err))
			return
		}
		ranges = append(ranges, &sweepRange{from: from, to: to, raw: sub, prefer: names[i]})
		from = to
	}

	d.mu.Lock()
	if j.state.Terminal() { // canceled while slicing
		d.mu.Unlock()
		return
	}
	j.sweep.ranges = ranges
	j.rev.Bump()
	j.spanLocked("scattered", 0, fmt.Sprintf("%d points over %d ranges", len(points), k))
	d.mu.Unlock()
	d.log.Info("sweep scattered", "job", j.id, "trace", j.trace, "points", len(points), "ranges", k)

	var wg sync.WaitGroup
	for _, r := range ranges {
		wg.Add(1)
		go func(r *sweepRange) {
			defer wg.Done()
			d.runRange(ctx, j, r)
		}(r)
	}
	wg.Wait()

	d.mu.Lock()
	if j.state.Terminal() {
		d.mu.Unlock()
		return
	}
	allDone, errMsg := true, ""
	for _, r := range ranges {
		if r.failed && errMsg == "" {
			errMsg = r.errMsg
		}
		if !r.done {
			allDone = false
		}
	}
	switch {
	case errMsg != "":
		j.errMsg = errMsg
		d.finishLocked(j, jobs.StateFailed)
		d.enqueueLocked(j, store.Event{T: store.EvFailed, Job: j.id, Trace: j.trace, At: j.finished, Engine: j.engine, Error: errMsg})
	case allDone:
		d.finishLocked(j, jobs.StateDone)
		d.enqueueLocked(j, store.Event{T: store.EvDone, Job: j.id, Trace: j.trace, At: j.finished, Engine: j.engine})
	default:
		// Dispatcher shutting down mid-sweep: the journal keeps the job
		// queued; the next process life re-scatters it.
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	d.flushDirty()
}

// failSweep marks the whole sweep failed before any range forwarded.
func (d *Dispatcher) failSweep(j *fwdJob, msg string) {
	d.mu.Lock()
	if j.state.Terminal() {
		d.mu.Unlock()
		return
	}
	j.errMsg = msg
	d.finishLocked(j, jobs.StateFailed)
	d.enqueueLocked(j, store.Event{T: store.EvFailed, Job: j.id, Trace: j.trace, At: j.finished, Error: msg})
	d.mu.Unlock()
	d.flushDirty()
}

// runRange owns one range's forwarding lifecycle, mirroring runJob: it
// assigns a worker, parks a revisioned watch on the remote sub-sweep (so
// per-point progress arrives as it happens), and re-forwards THIS range —
// and only this range — when its worker dies or forgets it.
func (d *Dispatcher) runRange(ctx context.Context, j *fwdJob, r *sweepRange) {
	fails := 0 // consecutive failed watches
	for ctx.Err() == nil {
		d.mu.Lock()
		if j.state.Terminal() || r.done || r.failed {
			d.mu.Unlock()
			return
		}
		workerName, remote, since := r.worker, r.remote, r.remoteRev
		d.mu.Unlock()

		if workerName == "" || remote == "" {
			if !d.forwardRange(j, r) {
				sleep(ctx, d.opts.ProbeInterval)
			}
			fails = 0
			continue
		}

		st, notFound, err := d.watch(ctx, workerName, remote, since)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return
			}
			if fails++; fails >= d.opts.ReforwardAfter {
				d.detachRange(j, r, workerName)
				fails = 0
				continue
			}
			sleep(ctx, d.backoff(fails))
		case notFound:
			d.detachRange(j, r, workerName)
			fails = 0
		default:
			fails = 0
			if d.observeRange(j, r, st) {
				return
			}
		}
	}
}

// forwardRange assigns the range to a worker and POSTs its sub-sweep.
// The scatter-time preferred node is tried first so concurrent ranges
// spread across the fleet; on refusal it rotates through the remaining
// healthy workers, least-loaded first, skipping the node that just lost
// the range.
func (d *Dispatcher) forwardRange(j *fwdJob, r *sweepRange) bool {
	tried := map[string]bool{}
	d.mu.Lock()
	avoid, prefer := r.avoid, r.prefer
	d.mu.Unlock()
	if avoid != "" {
		tried[avoid] = true
	}
	for round := 0; ; {
		name := ""
		if prefer != "" && !tried[prefer] && d.workerOK(prefer) {
			name = prefer
		} else {
			name = d.leastLoaded(tried)
		}
		if name == "" {
			if round == 0 && avoid != "" {
				// Everything else is down; the avoided node may be the only
				// fleet left. Allow it.
				delete(tried, avoid)
				round++
				continue
			}
			return false
		}
		tried[name] = true
		w := d.workerByName(name)
		ctx, cancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
		rtStart := time.Now()
		sub, err := w.c.submit(ctx, "/v1/sweeps", r.raw, j.pin, j.trace, j.profile)
		rt := time.Since(rtStart)
		cancel()
		if err != nil {
			continue // busy or unreachable: next candidate
		}
		d.met.roundtrip.Observe(rt)
		d.mu.Lock()
		if j.state.Terminal() { // canceled while forwarding
			d.mu.Unlock()
			cctx, ccancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
			w.c.cancel(cctx, sub.ID)
			ccancel()
			return true
		}
		r.worker, r.remote, r.remoteRev = name, sub.ID, sub.Rev
		r.avoid = ""
		r.forwards++
		j.rev.Bump()
		reforward := r.forwards > 1
		if reforward {
			d.met.reforwarded.Inc()
			j.spanLocked("assigned", rt, fmt.Sprintf("range [%d,%d) re-forwarded to %s as %s", r.from, r.to, name, sub.ID))
		} else {
			j.spanLocked("assigned", rt, fmt.Sprintf("range [%d,%d) to %s as %s", r.from, r.to, name, sub.ID))
		}
		d.met.forwarded.Inc()
		w.outstanding++
		d.enqueueLocked(j, store.Event{T: store.EvAssigned, Job: j.id, Trace: j.trace, At: time.Now(), Worker: name, Remote: sub.ID, From: r.from, To: r.to})
		d.mu.Unlock()
		if reforward {
			d.log.Warn("sweep range re-forwarded", "job", j.id, "trace", j.trace, "from", r.from, "to", r.to, "worker", name, "remote", sub.ID)
			obs.RecordDur(obs.FlightFleetForward, j.id, fmt.Sprintf("range [%d,%d) re-forwarded to %s as %s", r.from, r.to, name, sub.ID), rt)
		} else {
			d.log.Info("sweep range forwarded", "job", j.id, "trace", j.trace, "from", r.from, "to", r.to, "worker", name, "remote", sub.ID)
			obs.RecordDur(obs.FlightFleetForward, j.id, fmt.Sprintf("range [%d,%d) to %s as %s", r.from, r.to, name, sub.ID), rt)
		}
		d.flushDirty()
		return true
	}
}

// workerOK reports whether the named worker exists and is healthy.
func (d *Dispatcher) workerOK(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[name]
	return w != nil && w.healthy
}

// leastLoaded picks the healthy worker with the fewest outstanding
// dispatched jobs, excluding tried.
func (d *Dispatcher) leastLoaded(tried map[string]bool) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var least *worker
	for _, name := range d.names {
		w := d.workers[name]
		if w == nil || !w.healthy || tried[name] {
			continue
		}
		if least == nil || w.outstanding < least.outstanding {
			least = w
		}
	}
	if least == nil {
		return ""
	}
	return least.name
}

// healthyNames snapshots the healthy workers in configured order.
func (d *Dispatcher) healthyNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, name := range d.names {
		if w := d.workers[name]; w != nil && w.healthy {
			out = append(out, name)
		}
	}
	return out
}

// detachRange severs one range from a worker that died or forgot it;
// the range's watcher forwards it elsewhere next. Other ranges keep
// their assignments — only unfinished work moves.
func (d *Dispatcher) detachRange(j *fwdJob, r *sweepRange, workerName string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.state.Terminal() || r.done || r.failed {
		return
	}
	if r.worker != workerName { // raced with a re-forward
		return
	}
	r.worker, r.remote = "", ""
	r.avoid = workerName
	r.pointsDone = 0 // the replacement worker re-runs the whole range
	if w := d.workers[workerName]; w != nil {
		w.outstanding--
	}
	j.rev.Bump()
	j.spanLocked("detached", 0, fmt.Sprintf("range [%d,%d): worker %s lost the sub-sweep", r.from, r.to, workerName))
	obs.Record(obs.FlightFleetDetach, j.id, fmt.Sprintf("range [%d,%d): worker %s lost the sub-sweep", r.from, r.to, workerName))
	d.log.Warn("sweep range detached", "job", j.id, "trace", j.trace, "from", r.from, "to", r.to, "worker", workerName)
}

// observeRange folds a remote sub-sweep status into the range. Returns
// true when the range reached a terminal state.
func (d *Dispatcher) observeRange(j *fwdJob, r *sweepRange, st jobs.StatusDoc) bool {
	d.mu.Lock()
	if j.state.Terminal() || r.done || r.failed {
		d.mu.Unlock()
		return true
	}
	r.remoteRev = st.Rev
	j.rev.Bump() // see observe
	if st.Engine != "" {
		j.engine = st.Engine
	}
	if st.Shards > 0 {
		j.shards = st.Shards // the grant of the range heard from last
	}
	if st.PointsDone > r.pointsDone {
		r.pointsDone = st.PointsDone
	}
	if len(st.Profile) > 0 {
		// The sub-sweep's worker-aggregated kernel table; overwritten on
		// re-forward so the table matches the execution that survived.
		r.profile = st.Profile
	}
	enqueued := false
	switch st.State {
	case jobs.StateRunning:
		if j.state == jobs.StateQueued {
			j.state = jobs.StateRunning
			j.started = time.Now()
			j.spanLocked("started", 0, "first range running on "+r.worker)
			d.enqueueLocked(j, store.Event{T: store.EvStarted, Job: j.id, Trace: j.trace, At: j.started, Shards: st.Shards})
			enqueued = true
		}
	case jobs.StateDone:
		r.done = true
		r.pointsDone = r.to - r.from
		if w := d.workers[r.worker]; w != nil {
			w.outstanding--
		}
		j.spanLocked("range done", 0, fmt.Sprintf("[%d,%d) on %s", r.from, r.to, r.worker))
		obs.Record(obs.FlightSweepRange, j.id, fmt.Sprintf("range [%d,%d) done on %s", r.from, r.to, r.worker))
	case jobs.StateFailed:
		r.failed = true
		r.errMsg = st.Error
		if w := d.workers[r.worker]; w != nil {
			w.outstanding--
		}
		j.spanLocked("range failed", 0, fmt.Sprintf("[%d,%d) on %s: %s", r.from, r.to, r.worker, st.Error))
		obs.Record(obs.FlightSweepRange, j.id, fmt.Sprintf("range [%d,%d) failed on %s: %s", r.from, r.to, r.worker, st.Error))
	case jobs.StateCanceled:
		// Canceled out-of-band on the worker: treat as a range failure so
		// the sweep surfaces it rather than hanging.
		r.failed = true
		r.errMsg = fmt.Sprintf("fleet: range [%d,%d) canceled on worker %s", r.from, r.to, r.worker)
	}
	terminal := r.done || r.failed
	d.mu.Unlock()
	if enqueued {
		d.flushDirty()
	}
	return terminal
}

// subSweepRaw renders the template with its point grid sliced to
// [from,to) — the independent sub-sweep bundle one worker runs. Only the
// context block is copied; registers and operators are shared.
func subSweepRaw(tmpl *bundle.Bundle, from, to int) (json.RawMessage, error) {
	cp := *tmpl
	ctx := *tmpl.Context
	sw := *ctx.Sweep
	sw.Points = sw.Points[from:to]
	ctx.Sweep = &sw
	cp.Context = &ctx
	raw, err := json.Marshal(&cp)
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// WriteSweepResult merges the per-range result sets from their owning
// workers into one globally indexed SweepResultDoc. Only terminal sweeps
// answer; a sweep recovered as terminal from the journal after a
// dispatcher restart no longer knows its range assignments and reports
// that explicitly.
func (d *Dispatcher) WriteSweepResult(ctx context.Context, out io.Writer, id string) error {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
	}
	if j.sweep == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", jobs.ErrNotSweep, id)
	}
	st := d.statusLocked(j)
	d.mu.Unlock()

	if err := jobs.NotDoneError(id, st.State, fmt.Errorf("%w: %s", jobs.ErrJobFailed, st.Error)); err != nil {
		return err
	}
	if len(st.Ranges) == 0 {
		return badGateway("fleet: sweep %q finished before this dispatcher started; its range assignments were not retained — resubmit the sweep", id)
	}
	doc := jobs.NewSweepResultDoc(st)
	doc.Results = make([]jobs.SweepPointDoc, st.Points)
	for _, rg := range st.Ranges {
		w := d.workerByName(rg.Worker)
		if w == nil {
			return badGateway("fleet: sweep %q range [%d,%d) belongs to unknown worker %q", id, rg.From, rg.To, rg.Worker)
		}
		var part jobs.SweepResultDoc
		cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
		err := w.c.get(cctx, fmt.Sprintf("sweep result for range [%d,%d)", rg.From, rg.To), "/v1/sweeps/"+rg.Remote, &part)
		cancel()
		if err != nil {
			return err
		}
		if len(part.Results) != rg.To-rg.From {
			return badGateway("fleet: %s answered %d results for range [%d,%d)", rg.Worker, len(part.Results), rg.From, rg.To)
		}
		for _, pt := range part.Results {
			gi := rg.From + pt.Index
			if gi < rg.From || gi >= rg.To {
				return badGateway("fleet: %s answered out-of-range point %d for range [%d,%d)", rg.Worker, pt.Index, rg.From, rg.To)
			}
			pt.Index = gi
			doc.Results[gi] = pt
		}
	}
	jobs.WriteDoc(out, doc)
	return nil
}

// WaitTimeout is the dispatcher tier's long-poll primitive, with the
// semantics of jobs.Pool.WaitTimeout: it blocks until the record's
// revision exceeds since, the job is terminal, dur elapses or ctx ends,
// then returns the snapshot at that moment. since = jobs.NoRev waits for
// the terminal transition only.
func (d *Dispatcher) WaitTimeout(ctx context.Context, id string, dur time.Duration, since uint64) (jobs.Status, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return jobs.Status{}, fmt.Errorf("%w: %q", jobs.ErrNotFound, id)
	}
	j.rev.Await(ctx, &d.mu, j.done, dur, since)
	return d.statusLocked(j), nil
}
