package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// Options configure a Dispatcher. Workers is required; everything else
// has serving defaults.
type Options struct {
	// Workers are the fleet nodes' base URLs (host:port or http://…).
	Workers []string
	// Store, when non-nil, journals every accepted job (submission,
	// assignment, lifecycle) so forwarding survives both worker deaths
	// and dispatcher crashes. The dispatcher does not close the store.
	Store *store.Store
	// RequestTimeout bounds every dispatcher→worker HTTP call — both as
	// a context deadline and as the shared http.Client's hard timeout —
	// so a hung worker cannot wedge a dispatcher goroutine (default 10s).
	RequestTimeout time.Duration
	// ProbeInterval is the liveness probe cadence (default 1s).
	ProbeInterval time.Duration
	// EjectAfter is the consecutive probe failures that mark a worker
	// unhealthy; one success readmits it (default 3).
	EjectAfter int
	// ReforwardAfter is the consecutive failed watches (see runJob) after
	// which the job abandons its worker and re-forwards (default 3).
	ReforwardAfter int
	// Logger receives structured dispatch logs (assignments, reforwards,
	// ejections, terminal transitions) with job/trace/worker fields. nil
	// discards.
	Logger *slog.Logger
	// Metrics is the registry the dispatcher registers its instruments
	// in (fleet_* counters, the round-trip histogram, health gauges).
	// nil creates a private registry — NewHandler serves whichever one
	// is in effect on GET /metrics.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.ReforwardAfter <= 0 {
		o.ReforwardAfter = 3
	}
	return o
}

const (
	// affinitySlack is how many more outstanding dispatched jobs the
	// cache-affinity worker may carry than the least-loaded node before the
	// router spills the job to the latter.
	affinitySlack = 4
	// maxRecords bounds retained terminal job records, as a worker pool's
	// default jobs.Options.MaxRecords does.
	maxRecords = 65536
)

// fleetMetrics are the dispatcher's instruments, served on GET /metrics.
type fleetMetrics struct {
	submitted      *obs.Counter
	completed      *obs.Counter
	failed         *obs.Counter
	canceled       *obs.Counter
	forwarded      *obs.Counter
	reforwarded    *obs.Counter
	coalesced      *obs.Counter
	affinityHits   *obs.Counter
	affinitySpills *obs.Counter
	ejected        *obs.Counter
	readmitted     *obs.Counter
	recovered      *obs.Counter
	reattached     *obs.Counter
	sweeps         *obs.Counter
	roundtrip      *obs.Histogram
}

func newFleetMetrics(reg *obs.Registry, d *Dispatcher) *fleetMetrics {
	m := &fleetMetrics{
		submitted:      reg.Counter("fleet_submitted_total", "Jobs accepted by the dispatcher."),
		completed:      reg.Counter("fleet_completed_total", "Dispatched jobs that finished in StateDone."),
		failed:         reg.Counter("fleet_failed_total", "Dispatched jobs that finished in StateFailed."),
		canceled:       reg.Counter("fleet_canceled_total", "Dispatched jobs canceled before completion."),
		forwarded:      reg.Counter("fleet_forwarded_total", "Successful job handoffs to a worker."),
		reforwarded:    reg.Counter("fleet_reforwarded_total", "Handoffs that re-assigned a job after its worker died or forgot it."),
		coalesced:      reg.Counter("fleet_coalesced_total", "Submissions pinned to an identical in-flight job's worker."),
		affinityHits:   reg.Counter("fleet_affinity_hits_total", "Routing decisions that followed the consistent-hash affinity worker."),
		affinitySpills: reg.Counter("fleet_affinity_spills_total", "Routing decisions diverted to the least-loaded node by the slack rule."),
		ejected:        reg.Counter("fleet_ejected_total", "Workers marked unhealthy after consecutive probe failures."),
		readmitted:     reg.Counter("fleet_readmitted_total", "Unhealthy workers readmitted on a probe success."),
		recovered:      reg.Counter("fleet_recovered_total", "Job records replayed from the journal at boot."),
		reattached:     reg.Counter("fleet_reattached_total", "Recovered non-terminal jobs re-attached to their workers."),
		sweeps:         reg.Counter("fleet_sweeps_total", "Parameter-sweep jobs accepted by the dispatcher."),
		roundtrip:      reg.Histogram("fleet_roundtrip_seconds", "Dispatcher→worker submit round-trip time (accepted handoffs only).", nil),
	}
	// One series per configured worker, so d.names is complete here.
	for _, name := range d.names {
		w, lbl := d.workers[name], obs.Label{Name: "worker", Value: name}
		reg.GaugeFunc("fleet_worker_healthy", "1 while the worker takes new jobs, 0 once probes ejected it.", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			if w.healthy {
				return 1
			}
			return 0
		}, lbl)
		reg.GaugeFunc("fleet_worker_outstanding", "Jobs and sweep ranges the dispatcher has in flight on the worker.", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(w.outstanding)
		}, lbl)
	}
	reg.GaugeFunc("fleet_jobs_tracked", "Jobs in the dispatcher's table (terminal records included until retention evicts them).", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.Len())
	})
	return m
}

type worker struct {
	name        string
	c           *client
	healthy     bool
	consecFails int
	outstanding int
}

// fwdJob is the dispatcher's record: the shared jobs.Record plus what is
// forwarded and where to. Mutable fields are guarded by Dispatcher.mu.
type fwdJob struct {
	jobs.Record
	raw json.RawMessage // canonical bundle (a sweep's template), dropped when terminal
	pin int
	// ranges is what is forwarded. A plain job is one range carrying the
	// whole bundle; a sweep's grid is sliced into ranges at scatter time
	// (see sweep.go), so ranges is nil until then — and for a sweep
	// recovered from the journal in any state but done.
	ranges []*sweepRange
}

// Snapshot adds to the common status header what the ranges know: the
// assignment of a plain job's one range, a sweep's range table, progress
// and re-forward count summed over the ranges.
func (j *fwdJob) Snapshot(st *jobs.Status) {
	for _, r := range j.ranges {
		st.Reforwards += max(0, r.forwards-1)
		st.PointsDone += r.pointsDoneLocked()
		if j.Points == 0 {
			st.Worker, st.Remote = r.worker, r.remote
			continue
		}
		st.Ranges = append(st.Ranges, jobs.RangeInfo{
			From:       r.from,
			To:         r.to,
			State:      r.stateLocked(),
			Worker:     r.worker,
			Remote:     r.remote,
			PointsDone: r.pointsDoneLocked(),
			Forwards:   r.forwards,
			Error:      r.errMsg,
		})
	}
	if j.State == jobs.StateDone {
		st.PointsDone = st.Points // incl. a done sweep journaled before range tables were
	}
}

// Dispatcher fronts a fleet of /v1 workers: it routes submissions,
// watches their remote lifecycle, re-forwards orphans, and is itself a
// jobs.Service, so jobs.NewHandler serves it over the same /v1 surface.
type Dispatcher struct {
	// The job table: Status, List, Wait and WaitTimeout are its methods,
	// and every lifecycle move goes through its Transition.
	*jobs.Table[*fwdJob]
	opts Options
	hc   *http.Client
	met  *fleetMetrics
	reg  *obs.Registry
	log  *slog.Logger
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu sync.Mutex
	// workers and names (configured order) are fixed at New; mu guards
	// each worker's health and outstanding count.
	workers  map[string]*worker
	names    []string
	inflight map[string]*fwdJob // cache key → primary non-terminal job
	closed   bool
}

// New starts a dispatcher over the configured workers. When a store is
// attached its journal is replayed first: terminal jobs answer Status
// again, and non-terminal jobs are re-attached to their workers (or
// re-forwarded if no worker still knows them). Call Close to stop the
// prober and job watchers.
func New(opts Options) (*Dispatcher, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	d := &Dispatcher{
		opts: opts,
		// A dedicated transport: the default keeps only 2 idle
		// connections per host, while the dispatcher concentrates many
		// concurrent status polls, probes and proxies on a handful of
		// worker hosts — reuse the connections instead of churning TCP.
		hc: &http.Client{
			Timeout: opts.RequestTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		workers:  map[string]*worker{},
		inflight: map[string]*fwdJob{},
	}
	d.Table = jobs.NewTable[*fwdJob](&d.mu, maxRecords, opts.Store)
	d.log = opts.Logger
	if d.log == nil {
		d.log = obs.Discard()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d.reg = reg
	d.ctx, d.stop = context.WithCancel(context.Background())
	for _, name := range opts.Workers {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, dup := d.workers[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate worker %q", name)
		}
		// Optimistically healthy so submissions route before the first
		// probe completes; the prober corrects within EjectAfter rounds.
		d.workers[name] = &worker{name: name, c: newClient(name, d.hc), healthy: true}
		d.names = append(d.names, name)
	}
	if len(d.names) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	d.met = newFleetMetrics(reg, d)
	var reattach []*fwdJob
	if opts.Store != nil {
		reattach = d.recover()
	}
	d.wg.Add(1)
	go d.prober()
	for _, j := range reattach {
		d.wg.Add(1)
		go d.runJob(j)
	}
	return d, nil
}

// recover replays the journal into the job table. Terminal records become
// queryable, with the ranges that say where their results are; a queued or
// running plain job keeps its assignment (its runner watches the worker
// for the in-flight state and re-forwards if it is gone), one that never
// got assigned forwards from scratch, and a sweep scatters again.
func (d *Dispatcher) recover() []*fwdJob {
	var reattach []*fwdJob
	for _, rec := range d.opts.Store.Records() {
		j := &fwdJob{Record: jobs.Recovered(rec), pin: rec.Pin, raw: rec.Bundle}
		if rec.Points == 0 {
			j.ranges = []*sweepRange{{raw: rec.Bundle, worker: rec.Worker, remote: rec.Remote, done: j.State == jobs.StateDone}}
		}
		for _, rg := range rec.Ranges {
			j.ranges = append(j.ranges, &sweepRange{from: rg.From, to: rg.To, worker: rg.Worker, remote: rg.Remote, done: true})
		}
		d.Restore(j)
		d.met.recovered.Inc()
		if j.State.Terminal() {
			continue
		}
		// Queued or running at crash time: re-attach.
		if len(rec.Bundle) == 0 {
			// Nothing to re-forward with; surface rather than drop.
			d.finishLocked(j, jobs.StateFailed, "fleet: recovery: journal record has no bundle")
			continue
		}
		for _, r := range j.ranges {
			if w := d.workers[r.worker]; w != nil {
				w.outstanding++
			} else {
				// Never assigned, or the fleet config changed across the
				// restart and the node is gone. Forward from scratch.
				r.worker, r.remote = "", ""
			}
		}
		if j.Points == 0 && d.inflight[j.Key] == nil {
			d.inflight[j.Key] = j
		}
		d.met.reattached.Inc()
		j.Span("queued", 0, "re-attached after restart")
		d.log.Info("job re-attached", "job", j.ID, "trace", j.Trace)
		reattach = append(reattach, j)
	}
	return reattach
}

// Submit validates, journals and routes one bundle. The returned status
// is the accepted job's snapshot (state queued). o.TraceID is normally
// the inbound X-Trace-Id; the accepted ID rides the journal, every forward
// to a worker, and the status document. o.Shards and o.Profile are
// forwarded to whichever worker runs the job; the worker's kernel profile
// is proxied back into this job's status once it reports one. A bundle
// with a sweep block is refused as by a Pool (jobs.PlainJob).
func (d *Dispatcher) Submit(b *bundle.Bundle, o jobs.SubmitOptions) (jobs.Status, error) {
	if err := jobs.PlainJob(b); err != nil {
		return jobs.Status{}, err
	}
	return d.accept(b, o, 0)
}

// accept does the work of Submit and, for points > 0, of SubmitSweep. The
// raw canonical JSON is re-derived from the parsed bundle so the journal,
// the cache key and the forwarded payload all agree byte-for-byte.
func (d *Dispatcher) accept(b *bundle.Bundle, o jobs.SubmitOptions, points int) (jobs.Status, error) {
	key, err := jobs.CacheKey(b)
	if err != nil {
		return jobs.Status{}, err
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return jobs.Status{}, fmt.Errorf("fleet: marshal bundle: %w", err)
	}
	engine, _ := rt.ResolveEngine(b) // as a Pool records it: none when unresolved
	now := time.Now()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return jobs.Status{}, jobs.ErrClosed
	}
	j := &fwdJob{
		Record: jobs.Record{Trace: obs.EnsureTraceID(o.TraceID), Key: key, Engine: engine, Profile: o.Profile, Points: points},
		raw:    raw,
		pin:    o.Shards,
	}
	d.met.submitted.Inc()
	note := ""
	switch primary := d.inflight[key]; {
	case points > 0:
		// Sweeps skip the in-flight coalescing table: their work is spread
		// over the fleet, so there is no single "primary worker" to pin a
		// twin to. The grid journals as ONE record; the scatter happens
		// after acceptance.
		d.met.sweeps.Inc()
		note = fmt.Sprintf("sweep points=%d", points)
	case primary != nil:
		// A twin is already in flight through the dispatcher: the router
		// will pin this job to the primary's worker so the worker-side
		// pool coalesces them onto one execution.
		d.met.coalesced.Inc()
		note = "coalesces with " + primary.ID
	default:
		d.inflight[key] = j
	}
	if points == 0 {
		j.ranges = []*sweepRange{{raw: raw}}
	}
	d.Add(j, jobs.Detail{At: now, Note: note, Ev: store.Event{Bundle: raw, Pin: o.Shards, Profile: o.Profile}})
	d.wg.Add(1)
	st := d.Snapshot(j)
	d.mu.Unlock()
	d.log.Info("job accepted", "job", j.ID, "trace", j.Trace, "engine", engine, "points", points)

	// The 202 waits for the submitted line's fsync with the dispatcher
	// unlocked, so concurrent submitters share barriers.
	d.Commit(j)
	go d.runJob(j)
	return st, nil
}

// runJob owns one job's forwarding: it gets the job's ranges — the one a
// plain job was accepted with, or a sweep's scatter — and runs each on its
// own goroutine, itself being the first. It returns when the job is
// terminal or the dispatcher closes (the journal then carries the state to
// the next process life).
func (d *Dispatcher) runJob(j *fwdJob) {
	defer d.wg.Done()
	// The runner's context ends when the dispatcher stops or the job turns
	// terminal, so neither Close nor a client-side DELETE waits out a
	// parked watch.
	ctx, cancel := context.WithCancel(d.ctx)
	defer cancel()
	go func() {
		select {
		case <-j.Done():
			cancel()
		case <-ctx.Done():
		}
	}()
	// j.ranges is written before this goroutine starts or, under d.mu, by
	// the scatter below: this unlocked read is ordered.
	ranges := j.ranges
	if ranges == nil {
		var err error
		if ranges, err = d.scatter(ctx, j); err != nil {
			d.mu.Lock()
			if !j.State.Terminal() {
				d.finishLocked(j, jobs.StateFailed, err.Error())
			}
			d.mu.Unlock()
		}
		if ranges == nil { // failed, or the dispatcher is closing
			return
		}
	}
	var wg sync.WaitGroup
	for _, r := range ranges[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.run(ctx, j, r)
		}()
	}
	d.run(ctx, j, ranges[0])
	wg.Wait()
}

// run owns one range's forwarding: assign a worker, watch the remote job,
// and re-forward this range — and only this range — when the worker dies
// or forgets it. The watch is a revisioned long-poll parked on the worker
// (?wait=D&rev=N): the worker answers the moment the job changes, so every
// remote move reaches the dispatcher without a polling cadence, and a
// short job costs two status requests (→running, →done).
func (d *Dispatcher) run(ctx context.Context, j *fwdJob, r *sweepRange) {
	fails := 0 // consecutive failed watches
	for ctx.Err() == nil {
		d.mu.Lock()
		if j.State.Terminal() || r.done {
			d.mu.Unlock()
			return
		}
		workerName, remote, since := r.worker, r.remote, r.remoteRev
		d.mu.Unlock()

		if workerName == "" || remote == "" {
			if !d.forward(j, r) {
				// No worker reachable right now; journal already holds the
				// job, so keep retrying until the fleet comes back.
				sleep(ctx, d.opts.ProbeInterval)
			}
			fails = 0
			continue
		}

		st, notFound, err := d.watch(ctx, workerName, remote, since)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return // the job finished or the dispatcher is closing; the worker did not fail
			}
			if fails++; fails >= d.opts.ReforwardAfter {
				d.detach(j, r, workerName)
				fails = 0
				continue
			}
			sleep(ctx, d.backoff(fails))
		case notFound:
			// The worker answered but no longer knows the job: it
			// restarted without durable state. Re-forward immediately.
			d.detach(j, r, workerName)
			fails = 0
		default:
			fails = 0
			if d.observe(j, r, st) {
				return
			}
		}
	}
}

// watch parks one revisioned long-poll on the named worker. The poll asks
// for half the request timeout, so an idle watch returns (and is
// re-issued) well inside the context deadline, which stays RequestTimeout:
// a hung worker holds the runner no longer than any other call.
func (d *Dispatcher) watch(ctx context.Context, workerName, remote string, since uint64) (jobs.StatusDoc, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
	defer cancel()
	return d.workerByName(workerName).c.watch(ctx, remote, d.opts.RequestTimeout/2, since)
}

// backoff is the pause after the n-th consecutive failed watch: 10 ms,
// doubling, capped at the probe cadence. A dead worker fails a watch at
// once (connection refused or reset), so without the pause ReforwardAfter
// would be spent in microseconds — before a worker that is merely
// restarting could answer.
func (d *Dispatcher) backoff(fails int) time.Duration {
	pause := 10 * time.Millisecond << min(fails-1, 16)
	return min(pause, d.opts.ProbeInterval)
}

// forward assigns the range to a worker and POSTs it: the whole bundle to
// /v1/jobs for a plain job, the sub-sweep to /v1/sweeps for a sweep's
// range. It tries pick's choice first and rotates through the remaining
// healthy workers on transport errors or backpressure; the node that just
// lost the range (r.avoid) is skipped unless it is the only one left.
// Returns false when no worker accepted.
func (d *Dispatcher) forward(j *fwdJob, r *sweepRange) bool {
	tried := map[string]bool{}
	d.mu.Lock()
	// raw is read here, not at the POST: finishLocked drops it under the
	// lock when a concurrent Cancel finishes the job.
	avoid, raw := r.avoid, r.raw
	d.mu.Unlock()
	if raw == nil {
		return true // already terminal; nothing left to forward
	}
	if avoid != "" {
		tried[avoid] = true
	}
	path, kind := "/v1/jobs", "job"
	if j.Points > 0 {
		path, kind = "/v1/sweeps", "sweep range"
	}
	for round := 0; ; {
		name := d.pick(j, r, tried)
		if name == "" {
			if round == 0 && avoid != "" {
				// Every alternative is down; the avoided node may be the
				// only fleet left (e.g. it restarted in-memory). Allow it.
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
		sub, err := w.c.submit(ctx, path, raw, j.pin, j.Trace, j.Profile)
		rt := time.Since(rtStart)
		cancel()
		if err != nil {
			continue // busy or unreachable: next candidate
		}
		d.met.roundtrip.Observe(rt)
		d.mu.Lock()
		if j.State.Terminal() { // canceled while forwarding
			d.mu.Unlock()
			// The worker now holds an orphan twin; best-effort cancel it.
			cctx, ccancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
			w.c.cancel(cctx, sub.ID)
			ccancel()
			return true
		}
		r.worker, r.remote, r.remoteRev = name, sub.ID, sub.Rev
		r.avoid = ""
		r.forwards++
		w.outstanding++
		d.met.forwarded.Inc()
		note, msg, level := r.label(" "), kind+" forwarded", slog.LevelInfo
		switch {
		case r.forwards > 1:
			d.met.reforwarded.Inc()
			note, msg, level = note+"re-forwarded to ", kind+" re-forwarded", slog.LevelWarn
		case note != "":
			note += "to "
		}
		note += name + " as " + sub.ID
		j.Span("assigned", rt, note)
		j.Touch()
		d.Journal(j, store.Event{T: store.EvAssigned, At: time.Now(), Worker: name, Remote: sub.ID, From: r.from, To: r.to})
		d.mu.Unlock()
		d.log.Log(d.ctx, level, msg, "job", j.ID, "trace", j.Trace, "from", r.from, "to", r.to, "worker", name, "remote", sub.ID)
		obs.RecordDur(obs.FlightFleetForward, j.ID, note, rt)
		return true
	}
}

// pick chooses a worker for the range. A sweep's range goes to the node
// the scatter spread it to, else to the least-loaded healthy worker. A
// plain job goes to the in-flight primary's worker when its key is already
// dispatched (dispatcher-level coalescing), else to its key's affinity
// worker (affinityWorker) unless the slack rule spills to the
// least-loaded. Workers
// in tried are excluded.
func (d *Dispatcher) pick(j *fwdJob, r *sweepRange, tried map[string]bool) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ok := func(name string) bool {
		w := d.workers[name]
		return w != nil && w.healthy && !tried[name]
	}
	var least *worker
	for _, name := range d.names {
		if w := d.workers[name]; ok(name) && (least == nil || w.outstanding < least.outstanding) {
			least = w
		}
	}
	switch {
	case least == nil:
		return ""
	case j.Points > 0:
		if ok(r.prefer) {
			return r.prefer
		}
		return least.name
	}
	if primary := d.inflight[j.Key]; primary != nil && primary != j && ok(primary.ranges[0].worker) {
		return primary.ranges[0].worker
	}
	affinity := affinityWorker(j.Key, d.names, ok)
	if affinity == "" {
		return least.name
	}
	if aw := d.workers[affinity]; aw.outstanding > least.outstanding+affinitySlack {
		d.met.affinitySpills.Inc()
		return least.name
	}
	d.met.affinityHits.Inc()
	return affinity
}

// detach severs the range from a worker that died or forgot it; its
// runner forwards it elsewhere next, to re-run whole. Other ranges keep
// their assignments — only unfinished work moves. A job none of whose
// ranges is on a worker any more is queued again.
func (d *Dispatcher) detach(j *fwdJob, r *sweepRange, workerName string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A concurrent Cancel/observe that finished the job or the range has
	// released the worker already; so has a re-forward this call raced.
	if j.State.Terminal() || r.done || r.worker != workerName {
		return
	}
	d.releaseLocked(r)
	r.worker, r.remote, r.avoid, r.pointsDone = "", "", workerName, 0
	note, kind := "worker "+workerName+" lost the job", "job"
	if j.Points > 0 {
		note, kind = r.label(": ")+"worker "+workerName+" lost the sub-sweep", "sweep range"
	}
	assigned := false
	for _, o := range j.ranges {
		assigned = assigned || (o.worker != "" && !o.done)
	}
	if j.State == jobs.StateRunning && !assigned {
		_ = d.Transition(j, jobs.StateQueued, jobs.Detail{Note: note})
	} else {
		j.Span("detached", 0, note)
		j.Touch()
	}
	obs.Record(obs.FlightFleetDetach, j.ID, note)
	d.log.Warn(kind+" detached", "job", j.ID, "trace", j.Trace, "from", r.from, "to", r.to, "worker", workerName)
}

// releaseLocked is the one place a range stops counting against its
// worker: it finished there, lost it, or the job ended under it.
func (d *Dispatcher) releaseLocked(r *sweepRange) {
	if w := d.workers[r.worker]; w != nil {
		w.outstanding--
	}
}

// observe folds a remote status snapshot into the range and the job, then
// settles the job if that completed it: a plain job finishes with its one
// range, a sweep is done when every range is and fails with its first
// failed one. Returns true when the range needs no more watching.
func (d *Dispatcher) observe(j *fwdJob, r *sweepRange, st jobs.StatusDoc) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.State.Terminal() || r.done {
		return true
	}
	// Every reply is either a change on the worker or an idle watch
	// running out; counting the latter as a revision too costs a
	// dispatcher-side watcher one spurious wake-up per RequestTimeout/2.
	r.remoteRev = st.Rev
	j.Touch()
	if st.Engine != "" {
		j.Engine = st.Engine
	}
	if st.Shards > 0 {
		j.Shards = st.Shards // for a sweep: the grant of the range heard from last
	}
	r.pointsDone = max(r.pointsDone, st.PointsDone)
	sweep := j.Points > 0
	// The worker's kernel table, proxied opaquely (a sweep's: merged over
	// its ranges). Overwritten rather than kept: after a re-forward the
	// replacement worker's table describes the execution that survived.
	if !sweep {
		j.CacheHit, j.Coalesced = st.CacheHit, st.Coalesced
		if len(st.Profile) > 0 {
			j.ProfileDoc = st.Profile
		}
	} else if len(st.Profile) > 0 {
		r.profile = st.Profile
		j.ProfileDoc = mergedProfile(j.ranges)
	}
	switch st.State {
	case jobs.StateQueued:
		return false
	case jobs.StateRunning:
		if j.State == jobs.StateQueued {
			note := "on " + r.worker
			if sweep {
				note = "first range running " + note
			}
			_ = d.Transition(j, jobs.StateRunning, jobs.Detail{Note: note})
		}
		return false
	}
	// The remote job is terminal: the range leaves its worker.
	d.releaseLocked(r)
	outcome := "done"
	switch st.State {
	case jobs.StateDone:
		r.done, r.pointsDone = true, r.to-r.from
	case jobs.StateFailed:
		r.failed, r.errMsg, outcome = true, st.Error, "failed"
	case jobs.StateCanceled: // out-of-band, on the worker itself
		r.failed, r.errMsg, outcome = true, fmt.Sprintf("fleet: range [%d,%d) canceled on worker %s", r.from, r.to, r.worker), "failed"
	}
	if sweep {
		span := fmt.Sprintf("[%d,%d) on %s", r.from, r.to, r.worker)
		flight := fmt.Sprintf("range [%d,%d) %s on %s", r.from, r.to, outcome, r.worker)
		if r.failed {
			span, flight = span+": "+r.errMsg, flight+": "+r.errMsg
		}
		j.Span("range "+outcome, 0, span)
		obs.Record(obs.FlightSweepRange, j.ID, flight)
	}
	switch {
	case st.State == jobs.StateCanceled && !sweep:
		d.finishLocked(j, jobs.StateCanceled, "")
	case r.failed:
		// A sweep fails with its first failed range, a canceled sub-sweep
		// included: the sweep must surface it rather than hang.
		d.finishLocked(j, jobs.StateFailed, r.errMsg)
	default:
		for _, o := range j.ranges {
			if !o.done {
				return true
			}
		}
		d.finishLocked(j, jobs.StateDone, "")
	}
	return true
}

// finishLocked moves the job to a terminal state: the tier's counter and
// log line, the move itself (a done sweep's event carries its final range
// table, so that a restarted dispatcher still finds the results), then
// what the job no longer needs — its ranges' hold on their workers, the
// in-flight pin, the bundles. Callers hold d.mu and have checked the job
// is not terminal yet.
func (d *Dispatcher) finishLocked(j *fwdJob, to jobs.State, errMsg string) {
	det := jobs.Detail{At: time.Now()}
	if !j.Started.IsZero() && to != jobs.StateCanceled {
		det.Dur = det.At.Sub(j.Started)
	}
	worker := ""
	for _, r := range j.ranges {
		if r.worker != "" && !r.done && !r.failed {
			d.releaseLocked(r) // the job ended under it
		}
		r.raw = nil
		if j.Points == 0 {
			worker = r.worker
		} else if to == jobs.StateDone {
			det.Ev.Ranges = append(det.Ev.Ranges, store.Range{From: r.from, To: r.to, Worker: r.worker, Remote: r.remote})
		}
	}
	switch to {
	case jobs.StateDone:
		d.met.completed.Inc()
		d.log.Info("job done", "job", j.ID, "trace", j.Trace, "worker", worker, "run_ms", float64(det.Dur)/1e6)
	case jobs.StateFailed:
		d.met.failed.Inc()
		det.Note, det.Err = errMsg, errors.New(errMsg)
		d.log.Warn("job failed", "job", j.ID, "trace", j.Trace, "worker", worker, "err", errMsg)
	case jobs.StateCanceled:
		d.met.canceled.Inc()
		d.log.Info("job canceled", "job", j.ID, "trace", j.Trace, "worker", worker)
	}
	if err := d.Transition(j, to, det); err != nil {
		d.log.Error("lifecycle move refused", "job", j.ID, "err", err)
	}
	if d.inflight[j.Key] == j {
		delete(d.inflight, j.Key)
	}
	j.raw = nil
}

// sleep pauses a runner — no worker reachable, or backing off after a
// failed watch — and returns early when its context ends.
func sleep(ctx context.Context, dur time.Duration) {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (d *Dispatcher) workerByName(name string) *worker {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workers[name]
}

// prober asks every worker for GET /v1/engines on the probe cadence — a
// liveness check — ejecting after EjectAfter consecutive failures and
// readmitting on the first success.
func (d *Dispatcher) prober() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-t.C:
		}
		d.probeOnce()
	}
}

func (d *Dispatcher) probeOnce() {
	type outcome struct {
		w   *worker
		err error
	}
	// The worker set and each worker's client are fixed at New; only the
	// health fields need d.mu.
	results := make(chan outcome, len(d.names))
	for _, name := range d.names {
		go func(w *worker) {
			ctx, cancel := context.WithTimeout(d.ctx, d.opts.RequestTimeout)
			defer cancel()
			_, err := w.c.engines(ctx)
			results <- outcome{w, err}
		}(d.workers[name])
	}
	for range d.names {
		o := <-results
		w := o.w
		d.mu.Lock()
		switch {
		case o.err != nil:
			w.consecFails++
			if w.healthy && w.consecFails >= d.opts.EjectAfter {
				w.healthy = false
				d.met.ejected.Inc()
				obs.Record(obs.FlightFleetEject, "", fmt.Sprintf("worker %s after %d probe failures", w.name, w.consecFails))
				d.log.Warn("worker ejected", "worker", w.name, "consecutive_failures", w.consecFails)
			}
		default:
			w.consecFails = 0
			if !w.healthy {
				w.healthy = true
				d.met.readmitted.Inc()
				obs.Record(obs.FlightFleetReadmit, "", "worker "+w.name)
				d.log.Info("worker readmitted", "worker", w.name)
			}
		}
		d.mu.Unlock()
	}
}

// WriteResult passes on the job's result document from its owning worker,
// byte for byte; a worker that answers anything but 200 has its verdict
// passed on as well. Jobs that never reached a worker follow the pool's
// error semantics.
func (d *Dispatcher) WriteResult(ctx context.Context, out io.Writer, id string) error {
	d.mu.Lock()
	j, err := d.Get(id)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	sweep, state, failure := j.Points > 0, j.State, j.Err
	var workerName, remote string
	if !sweep {
		workerName, remote = j.ranges[0].worker, j.ranges[0].remote
	}
	d.mu.Unlock()
	if sweep {
		return fmt.Errorf("%w: its results are at GET /v1/sweeps/%s", jobs.ErrIsSweep, id)
	}
	if err := jobs.NotDoneError(id, state, fmt.Errorf("%w: %v", jobs.ErrJobFailed, failure)); err != nil {
		return err
	}
	w := d.workerByName(workerName)
	if w == nil || remote == "" {
		return badGateway("fleet: job %q has no assignment to a known worker on record (worker %q)", id, workerName)
	}
	cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
	defer cancel()
	code, body, err := w.c.do(cctx, http.MethodGet, "/v1/jobs/"+remote+"/result", nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return &workerError{code, errorText(body)}
	}
	_, _ = out.Write(body) // see jobs.Service: a failed write is not reported
	return nil
}

// Cancel cancels a dispatched job. A job with no range on a worker cancels
// locally. A plain job that is assigned forwards DELETE to its owning
// worker, under the caller's context plus the request timeout so a hung
// worker cannot wedge the canceling goroutine, and the worker's verdict
// decides: a running job is a conflict there, so it is one here. A worker
// that already forgot the job (it restarted) counts as canceled too — the
// runner would only re-run work the client no longer wants. The DELETE
// races the runner's re-forward path, so after the round trip the
// assignment is re-checked under the lock: if the job moved workers
// meanwhile, the cancel chases it to the new node rather than reporting
// success while a live copy keeps running elsewhere. A sweep cancels
// locally whatever its ranges are doing — the range watchers wake on done
// and exit — and then cancels every assigned range's remote sub-sweep
// best-effort; one that slips through keeps running remotely but its
// results are never fetched.
func (d *Dispatcher) Cancel(ctx context.Context, id string) (jobs.Status, error) {
	cancelOn := func(loc rangeLoc) (int, []byte, error) {
		cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
		defer cancel()
		return d.workerByName(loc.worker).c.cancel(cctx, loc.remote)
	}
	for attempt := 0; attempt < 4; attempt++ {
		d.mu.Lock()
		j, err := d.Get(id)
		if err != nil {
			d.mu.Unlock()
			return jobs.Status{}, err
		}
		if j.State.Terminal() {
			st := d.Snapshot(j)
			d.mu.Unlock()
			if attempt > 0 {
				// Went terminal during the chase (observe() or our own
				// earlier DELETE landing); nothing left to cancel.
				return st, nil
			}
			return st, fmt.Errorf("%w: %q is already %s", jobs.ErrConflict, id, st.State)
		}
		var live []rangeLoc
		for _, r := range j.ranges {
			if w := d.workers[r.worker]; w != nil && r.remote != "" && !r.done {
				live = append(live, rangeLoc{r, r.worker, r.remote})
			}
		}
		if j.Points > 0 || len(live) == 0 {
			st := d.canceledLocked(j)
			for _, loc := range live {
				cancelOn(loc)
			}
			return st, nil
		}
		d.mu.Unlock()

		loc := live[0]
		code, body, err := cancelOn(loc)
		if err != nil {
			return jobs.Status{}, badGateway("fleet: cancel %q on %s: %v", id, loc.worker, err)
		}
		if code != http.StatusOK && code != http.StatusNotFound {
			return jobs.Status{}, fmt.Errorf("%w: %s", jobs.ErrConflict, decodeErr(code, body))
		}
		d.mu.Lock()
		if loc.r.worker == loc.worker && loc.r.remote == loc.remote {
			return d.canceledLocked(j), nil
		}
		// Re-forwarded while the DELETE was in flight: the copy we
		// canceled is not the live one. Chase the new assignment.
		d.mu.Unlock()
	}
	return jobs.Status{}, badGateway("fleet: cancel %q: assignment kept moving; retry", id)
}

// rangeLoc is where a range was when Cancel looked.
type rangeLoc struct {
	r              *sweepRange
	worker, remote string
}

// canceledLocked is the tail of every cancel: finish the job locally
// unless something else just did, snapshot it, and acknowledge only once
// the canceled line is fsynced — the 200 must not outrun it. Callers hold
// d.mu, which it releases.
func (d *Dispatcher) canceledLocked(j *fwdJob) jobs.Status {
	if !j.State.Terminal() {
		d.finishLocked(j, jobs.StateCanceled, "")
	}
	st := d.Snapshot(j)
	d.mu.Unlock()
	d.Commit(j)
	return st
}

// Engines returns the union of engine names across healthy workers.
func (d *Dispatcher) Engines(ctx context.Context) ([]string, error) {
	d.mu.Lock()
	clients := make([]*client, 0, len(d.workers))
	for _, name := range d.names {
		if w := d.workers[name]; w.healthy {
			clients = append(clients, w.c)
		}
	}
	d.mu.Unlock()
	if len(clients) == 0 {
		return nil, &workerError{http.StatusServiceUnavailable, "fleet: no healthy workers"}
	}
	type outcome struct {
		engines []string
		err     error
	}
	results := make(chan outcome, len(clients))
	for _, c := range clients {
		go func(c *client) {
			cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
			defer cancel()
			engines, err := c.engines(cctx)
			results <- outcome{engines, err}
		}(c)
	}
	union := map[string]bool{}
	var lastErr error
	got := false
	for range clients {
		o := <-results
		if o.err != nil {
			lastErr = o.err
			continue
		}
		got = true
		for _, e := range o.engines {
			union[e] = true
		}
	}
	if !got {
		return nil, &workerError{http.StatusServiceUnavailable, lastErr.Error()}
	}
	out := make([]string, 0, len(union))
	for e := range union {
		out = append(out, e)
	}
	sort.Strings(out)
	return out, nil
}

// Metrics returns the registry the dispatcher's instruments live in
// (Options.Metrics, or the private one created when that was nil).
func (d *Dispatcher) Metrics() *obs.Registry { return d.reg }

// Logger returns the dispatcher's logger (Options.Logger, or one that
// discards).
func (d *Dispatcher) Logger() *slog.Logger { return d.log }

// Close stops the prober and the per-job watchers and flushes the
// journal. Jobs still running on workers keep running there; the journal
// holds their assignments, so a restarted dispatcher re-attaches to
// them.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	d.stop()
	d.wg.Wait()
	if d.opts.Store != nil {
		//lint:ignore journalerr final courtesy flush on shutdown; every event already met its policy's durability barrier when appended
		_ = d.opts.Store.Sync()
	}
}
