// Package jobs is the middle layer's serving subsystem: an asynchronous
// job scheduler that turns the one-shot runtime.Submit path into the
// queued, job-ID-addressed execution model production quantum services
// (IBM Quantum's job API, D-Wave Leap) expose.
//
// A Pool accepts validated submission bundles, assigns job IDs, runs them
// on a fixed worker pool (one goroutine per worker) fed from a bounded
// queue — Submit fails fast with ErrQueueFull when the queue is saturated,
// the backpressure signal the HTTP front-end translates into 429 — and
// deduplicates identical submissions through a content-addressed result
// cache keyed by the canonical bundle JSON plus resolved shots and seed.
// A submission identical to a job that is *currently executing* does not
// run twice either: it coalesces onto the in-flight job and completes
// with the same result the moment the primary finishes. Queue-wait and
// run-time metrics are histograms on GET /metrics.
//
// The job lifecycle — states, legal moves, the span and journal event of
// each — is stated once, on Table.Transition, and shared with the fleet
// dispatcher: each tier keeps a Record per job in a Table and moves it
// only through Transition, which also writes the move's journal line. What
// a Pool adds is the bounded queue, the result cache and coalescing
// described above, and the shard grant below.
//
// The pool is also the shard scheduler for the statevector engine: when a
// job starts it is granted a parallelism level (Status.Shards) forwarded
// to the engine (backend.ExecOptions.Shards). A job that finds the pool
// otherwise idle takes Options.MaxShards so one big simulation spans
// every core; jobs running alongside others stay single-shard so
// concurrent throughput is undisturbed. Submitters can pin an explicit
// grant per job via SubmitOptions.
//
// # Persistence and recovery
//
// With Options.Store attached (an internal/jobs/store journal + result
// directory), accepted work is durable. Every lifecycle move appends one
// journal event (see Table.Transition; the submitted event carries the
// canonical bundle JSON), bounded retention a forget event per evicted
// record, and completed results are written as content-addressed files
// before the terminal event references them, so a "done" record on disk
// never points at a missing result.
//
// The recovery guarantees, in order of the journal's fsync policy:
//
//   - A job terminal before the crash answers Status and Result after the
//     restart exactly as before it (result loaded lazily from disk).
//   - A job queued or running at crash time is requeued at boot under its
//     original ID and re-run. Execution is deterministic in the cache key
//     (bundle + shots + seed), so the re-run produces the counts the lost
//     run would have: requeueing is invisible except in timing.
//   - A torn final journal line (the append the crash interrupted) is
//     dropped and truncated; it can only be a transition that was never
//     acknowledged. Interior corruption fails Open loudly.
//   - The LRU result cache rehydrates from the newest on-disk results at
//     boot, and a memory-cache miss falls through to the disk store
//     (jobs_disk_hits_total), so identical resubmissions across restarts
//     still skip execution.
//
// # Sweep jobs
//
// A bundle whose context carries a sweep block — parameter names plus a
// point grid — enters through SubmitSweep as ONE job: one journal
// record (the submitted event stores the template with its grid), one
// queue slot, one worker turn fanning out per point. A sweep and a plain
// job are the same intent under two contexts, and the Pool treats them
// so: one admission and one executor (runJob), where a plain job is a grid
// of one point — its bundle, under its own key. Submit refuses a bundle
// with a sweep block (PlainJob), so a template's key belongs to sweeps
// alone: admission looks a plain job's key up among the stored results,
// and every job's among the running ones, so a sweep is never born done,
// but an identical sweep submitted while one runs coalesces onto it like
// any in-flight twin. The worker materializes
// each point with bundle.BindPoint, which substitutes the point's
// values into the "$name" markers and strips the sweep block: the
// result is byte-for-byte the bundle a caller would have submitted for
// that point alone. The per-point cache key is derived from that
// concrete bundle exactly as a plain submission's would be (canonical
// bundle JSON + resolved shots and seed, see CacheKey), so sweep points
// hit, and populate, the same content-addressed cache as individual
// jobs — a sweep after a per-point run (or vice versa) re-executes
// nothing. Every job and point is served from a stored result the same
// way: the memory LRU, then the result log, writing a memory hit the log
// lacks back to it.
//
// Execution goes through one runtime.Prepare handle per job, which runs
// its points: a gate template with a parametric form compiles once into a
// sim.ParamPlan and each point binds into it; every other point runs its
// concrete bundle. The job's grant G — the same shard grant a plain job
// gets — is spent as lanes × shards (see sweepLanes): L = min(G, points
// not served from a cache) goroutines, the worker one of them, each
// pulling the next point from a shared counter, running it on G/L shards,
// persisting and publishing it; L·2^qubits never exceeds 2^sim.MaxQubits
// resident amplitudes. A plain job's one point is one lane on all G shards
// and one Run. A sweep beside other running work has G = 1 and is the
// plain serial loop. Points complete out of order, so Status.PointsDone
// is a count, not a prefix of the grid; Status.Shards stays G, and the
// "started" and "executed" spans carry the split. Points of one grid with
// equal cache keys execute once. The first failing point stops the lanes
// and fails the job. The
// bind-invariance contract (see internal/sim: structure, kernel order
// and stats fixed across bindings; bound execution bit-identical to a
// concrete compile) is what makes this sound — per-point counts,
// fingerprints and cache keys are indistinguishable from the
// concrete-angle path, so determinism-dependent machinery (cache,
// crash requeue, fleet re-forwarding) needs no sweep-specific cases.
// SweepResult returns the indexed per-point result set; the HTTP layer
// surfaces the pair as POST /v1/sweeps and GET /v1/sweeps/{id}, and
// GET /v1/jobs/{id} long-polls with ?wait=<duration>, waking on the next
// change after ?rev=<revision> when one is given (see Revision).
//
// A Pool is one of the two implementations of Service, the /v1 protocol
// as Go calls; the other is the fleet dispatcher, which forwards to Pools
// on other nodes. cmd/qmlserve puts either behind NewHandler — where the
// routes, documents and long-poll semantics are stated — and wires
// -data-dir to a store; cmd/qmlrun -parallel uses the same Pool for
// concurrent batch execution.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	stdruntime "runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/jobs/store"
	"repro/internal/obs"
	"repro/internal/qop"
	"repro/internal/result"
	rt "repro/internal/runtime"
)

// State is a job lifecycle state.
type State string

// Lifecycle states; Done, Failed and Canceled are terminal. The legal
// moves between them are Table.Transition's.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors of the /v1 protocol, returned by every Service;
// httpStatus maps them to status codes.
var (
	// ErrQueueFull is the backpressure signal: the bounded queue is
	// saturated and the submission was rejected, not enqueued.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed means the pool has been shut down.
	ErrClosed = errors.New("jobs: pool closed")
	// ErrNotFound means no job has the given ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotFinished means the job has not reached a terminal state yet.
	ErrNotFinished = errors.New("jobs: job not finished")
	// ErrCanceled means the job was canceled before it ran.
	ErrCanceled = errors.New("jobs: job canceled")
	// ErrConflict means a cancel was refused by the job's state: it is
	// already terminal, or running and not preemptible.
	ErrConflict = errors.New("jobs: conflict")
	// ErrJobFailed wraps the failure message of a job that ran elsewhere (a
	// dispatcher knows its workers' failures only as text). A Pool returns
	// the execution error itself.
	ErrJobFailed = errors.New("jobs: job failed")
	// ErrNotSweep means a sweep's result set was asked of a plain job, and
	// ErrIsSweep a single result of a sweep, or a sweep bundle submitted as
	// a plain job: each kind has its own routes.
	ErrNotSweep = errors.New("jobs: not a sweep job")
	ErrIsSweep  = errors.New("jobs: job is a sweep")
	// ErrBadSweep means a sweep submission has no usable point grid.
	ErrBadSweep = errors.New("jobs: malformed sweep")
)

// Options configure a Pool. The zero value is usable: NumCPU workers, a
// 64-deep queue, and a 1024-entry result cache.
type Options struct {
	// Workers is the number of executor goroutines (default: NumCPU).
	Workers int
	// QueueDepth bounds the submission queue; a full queue rejects with
	// ErrQueueFull (default 64).
	QueueDepth int
	// CacheSize bounds the content-addressed result cache in entries
	// (default 1024; negative disables caching).
	CacheSize int
	// MaxRecords bounds how many terminal job records (with their
	// results) are retained for Status/Result lookups; the oldest
	// finished jobs are evicted first and subsequently report
	// ErrNotFound (default 65536; negative retains everything).
	// Queued and running jobs are never evicted.
	MaxRecords int
	// MaxShards caps the statevector parallelism one job may be granted
	// (default: GOMAXPROCS). A job that starts while the pool is
	// otherwise idle receives the full cap; jobs running alongside
	// others receive one shard.
	MaxShards int
	// Store, when non-nil, makes the pool durable: every state
	// transition is written to the store's journal, results persist as
	// content-addressed files, and NewPool replays the journal —
	// terminal jobs stay queryable across restarts, jobs that were
	// queued or running at crash time are requeued, and the result
	// cache rehydrates from disk. The pool does not close the store;
	// the owner does, after Close returns. Journal append failures are
	// counted (store_journal_errors_total) but never fail the job
	// operation — the service degrades to in-memory rather than rejecting
	// work.
	Store *store.Store
	// Logger receives structured lifecycle logs (job ID, trace ID,
	// engine, state transitions). nil discards them.
	Logger *slog.Logger
	// Metrics is the registry the pool's instruments register in (nil: a
	// private registry, so pools in tests never collide). The server
	// passes its own so /metrics carries jobs_* families; pass the same
	// registry to the store so one scrape covers both.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = stdruntime.NumCPU()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.MaxRecords == 0 {
		o.MaxRecords = 65536
	}
	if o.MaxShards <= 0 {
		o.MaxShards = stdruntime.GOMAXPROCS(0)
	}
	return o
}

// Status is an externally visible snapshot of one job's lifecycle.
type Status struct {
	ID string
	// Trace is the job's fleet-wide trace ID (inbound X-Trace-Id or
	// server-generated).
	Trace  string
	State  State
	Engine string
	// Worker is the fleet node currently (or finally) owning the job and
	// Remote the job's ID in that node's pool; Reforwards counts how many
	// times the job (for a sweep: its ranges) changed workers. A dispatcher
	// sets them, and Ranges; a Pool leaves all four zero.
	Worker     string
	Remote     string
	Reforwards int
	CacheHit   bool
	// Coalesced reports that this job never executed: it attached to an
	// identical in-flight job and shares its outcome.
	Coalesced bool
	// Shards is the parallelism granted when the job started running (0
	// while queued, and for cache hits and coalesced jobs).
	Shards int
	// Sweep reports a sweep job; Points is its parameter-grid size and
	// PointsDone how many points have completed so far (equal to Points
	// once the job is done).
	Sweep      bool
	Points     int
	PointsDone int
	// Progress is PointsDone/Points for sweep jobs (1 for any terminal
	// job), and ETA a coarse remaining-time estimate extrapolated from
	// the completed points' average duration (zero until at least one
	// point finishes, and for non-sweep jobs).
	Progress float64
	ETA      time.Duration
	// Ranges is the per-range dispatch detail of a sweep scattered over a
	// fleet: which worker owns each slice of the grid and how far along it
	// is.
	Ranges []RangeInfo
	// Profile is the kernel-granular execution profile of a profiled job
	// (SubmitOptions.Profile): the sim.Profile kernel table for plain
	// jobs, the per-kind aggregate for sweeps. nil while the job runs and
	// for unprofiled jobs.
	Profile json.RawMessage
	// Error holds the failure message for StateFailed.
	Error       string
	SubmittedAt time.Time
	StartedAt   time.Time // zero until the job leaves the queue
	FinishedAt  time.Time // zero until terminal
	// Spans is the job's lifecycle log: queued/started/stage timings/
	// persisted/terminal, in order, with monotonic timestamps.
	Spans []obs.Span
	// Rev is the record's revision: it advances on every change this
	// snapshot can show other than the span log (state, sweep progress,
	// profile), so a poller that hands it back as ?rev= is answered the
	// moment there is something newer.
	Rev uint64
}

// QueueWait is StartedAt−SubmittedAt, or, for a job that finished without
// starting (cache hit, coalesced, canceled), FinishedAt−SubmittedAt.
func (s Status) QueueWait() time.Duration {
	switch {
	case !s.StartedAt.IsZero():
		return s.StartedAt.Sub(s.SubmittedAt)
	case !s.FinishedAt.IsZero():
		return s.FinishedAt.Sub(s.SubmittedAt)
	}
	return 0
}

// SetProgress derives Progress and ETA from the rest of the snapshot, the
// same way on both tiers: 1 for any terminal job, PointsDone/Points for a
// sweep in flight, and for a running sweep a coarse ETA extrapolated from
// the average duration of the points completed so far.
func (s *Status) SetProgress() {
	switch {
	case s.State.Terminal():
		s.Progress = 1
	case s.Points > 0:
		s.Progress = float64(s.PointsDone) / float64(s.Points)
	}
	if s.State == StateRunning && s.PointsDone > 0 && s.PointsDone < s.Points && !s.StartedAt.IsZero() {
		s.ETA = time.Since(s.StartedAt) / time.Duration(s.PointsDone) * time.Duration(s.Points-s.PointsDone)
	}
}

// RunTime is FinishedAt−StartedAt (zero until both are set).
func (s Status) RunTime() time.Duration {
	if s.StartedAt.IsZero() || s.FinishedAt.IsZero() {
		return 0
	}
	return s.FinishedAt.Sub(s.StartedAt)
}

// RangeInfo is one sweep range's dispatch snapshot in a fleet status
// document: the [From,To) grid slice, its owning worker and remote
// sub-sweep ID, and range-local progress.
type RangeInfo struct {
	From       int    `json:"from"`
	To         int    `json:"to"`
	State      string `json:"state"` // queued | running | done | failed
	Worker     string `json:"worker,omitempty"`
	Remote     string `json:"remote,omitempty"`
	PointsDone int    `json:"points_done"`
	// Forwards counts handoffs; >1 means the range moved workers.
	Forwards int    `json:"forwards"`
	Error    string `json:"error,omitempty"`
}

// poolMetrics are the pool's instruments, served on GET /metrics: the
// counters, and the queue-wait and run-time distributions.
type poolMetrics struct {
	submitted   *obs.Counter
	completed   *obs.Counter
	failed      *obs.Counter
	canceled    *obs.Counter
	rejected    *obs.Counter
	cacheHits   *obs.Counter
	diskHits    *obs.Counter
	coalesced   *obs.Counter
	wideJobs    *obs.Counter
	recovered   *obs.Counter
	requeued    *obs.Counter
	sweeps      *obs.Counter
	sweepPoints *obs.Counter
	queueWait   *obs.Histogram
	runTime     *obs.Histogram
}

func newPoolMetrics(reg *obs.Registry, p *Pool) *poolMetrics {
	m := &poolMetrics{
		submitted:   reg.Counter("jobs_submitted_total", "Submissions accepted (rejected ones count in jobs_rejected_total only)."),
		completed:   reg.Counter("jobs_completed_total", "Jobs finished in StateDone, including cache hits and coalesced twins."),
		failed:      reg.Counter("jobs_failed_total", "Jobs finished in StateFailed."),
		canceled:    reg.Counter("jobs_canceled_total", "Jobs canceled while queued."),
		rejected:    reg.Counter("jobs_rejected_total", "Submissions refused with ErrQueueFull."),
		cacheHits:   reg.Counter("jobs_cache_hits_total", "Submissions served from the content-addressed result cache."),
		diskHits:    reg.Counter("jobs_disk_hits_total", "Submissions served from an on-disk result absent from the memory cache."),
		coalesced:   reg.Counter("jobs_coalesced_total", "Submissions attached to an identical in-flight job."),
		wideJobs:    reg.Counter("jobs_wide_total", "Jobs granted more than one shard."),
		recovered:   reg.Counter("jobs_recovered_total", "Job records restored from the journal at boot."),
		requeued:    reg.Counter("jobs_requeued_total", "Recovered jobs that re-entered the queue."),
		sweeps:      reg.Counter("jobs_sweeps_total", "Sweep submissions accepted (each is one job fanning out per point)."),
		sweepPoints: reg.Counter("jobs_sweep_points_total", "Sweep points completed in StateDone sweeps, including cached points."),
		queueWait:   reg.Histogram("jobs_queue_wait_seconds", "Time from submission to execution start (or to completion for dequeue-time cache hits and coalesced twins).", nil),
		runTime:     reg.Histogram("jobs_run_seconds", "Execution wall time of jobs that ran.", nil),
	}
	reg.GaugeFunc("jobs_queue_len", "Jobs waiting in the bounded queue.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.pending))
	})
	reg.GaugeFunc("jobs_running", "Jobs executing right now.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(p.running)
	})
	reg.GaugeFunc("jobs_cache_entries", "Entries in the in-memory result cache.", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.cache == nil {
			return 0
		}
		return float64(p.cache.len())
	})
	return m
}

// job is a Pool's record: the shared Record plus what only a pool holds.
// A plain job is a grid of one point, its bundle under its own Key; a sweep
// (Points > 0) has one point per entry of its grid. Fields are guarded by
// Pool.mu.
type job struct {
	Record
	bundle  *bundle.Bundle // dropped when terminal
	pin     int            // submitter's explicit parallelism request (0 = scheduler)
	waiters []*job         // identical submissions coalesced onto this running job
	primary *job           // the running job this one is attached to (waiters only)
	// keys are the content addresses of the points' results in grid order
	// and results those results, both set when the job is done — for a job
	// recovered done, keys alone until the first read loads the results
	// (see Pool.doneResults). completed counts the points finished so far.
	keys      []string
	results   []*result.Result
	completed int
}

// Snapshot adds a sweep's progress to the common status header.
func (j *job) Snapshot(s *Status) {
	if j.Points > 0 {
		s.PointsDone = j.completed
	}
}

// profileOf is the profile a done job shows for its results: the kernel
// table of a plain job's, the per-kind aggregate of a sweep's; nil for an
// unprofiled job.
func (j *job) profileOf(results []*result.Result) json.RawMessage {
	switch {
	case !j.Profile:
		return nil
	case j.Points == 0:
		return profileRaw(results[0])
	}
	return aggregateSweepProfiles(results)
}

// Pool is a concurrent job scheduler over runtime.Prepare handles.
type Pool struct {
	// The job table: Status, List, Wait and WaitTimeout are its methods,
	// and every lifecycle move goes through its Transition.
	*Table[*job]
	opts Options
	met  *poolMetrics
	reg  *obs.Registry
	log  *slog.Logger
	wg   sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond // signals workers when pending gains a job or Close runs
	// pending is the bounded FIFO feeding the workers. A slice (not a
	// channel) so Cancel can remove a queued job and free its slot for
	// backpressure accounting immediately.
	pending []*job
	// inflight maps a cache key to the job currently executing it, so
	// identical submissions coalesce onto the running job instead of
	// executing twice. Entries exist only while the primary is running.
	inflight map[string]*job
	cache    *resultCache
	running  int
	closed   bool
}

// NewPool starts a pool with opts.Workers executor goroutines. Call Close
// to drain and stop them. When Options.Store is set, the store's journal
// is replayed first: terminal jobs are re-exposed for Status/Result
// lookups, jobs that were queued or running at crash time are requeued
// (same job IDs, so pre-crash handles keep resolving), and the result
// cache rehydrates from the store's result log, newest results last.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{opts: opts, inflight: map[string]*job{}}
	p.cond = sync.NewCond(&p.mu)
	p.Table = NewTable[*job](&p.mu, opts.MaxRecords, opts.Store)
	p.log = opts.Logger
	if p.log == nil {
		p.log = obs.Discard()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p.reg = reg
	p.met = newPoolMetrics(reg, p)
	if opts.CacheSize > 0 {
		p.cache = newResultCache(opts.CacheSize)
	}
	if opts.Store != nil {
		p.mu.Lock()
		p.recoverLocked()
		p.mu.Unlock()
	}
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// finishLocked moves j to a terminal state and drops the submission
// payload: only the result and status are read after that. Callers hold
// p.mu and have checked that j is not terminal yet.
func (p *Pool) finishLocked(j *job, to State, d Detail) {
	if err := p.Transition(j, to, d); err != nil {
		p.log.Error("lifecycle move refused", "job", j.ID, "err", err)
	}
	j.bundle = nil
}

// doneLocked moves j to done with the results of its points, whose content
// addresses keys are: the done line references them (a plain job's under
// its own key), so a durable pool has them in the store first. Callers
// hold p.mu.
func (p *Pool) doneLocked(j *job, keys []string, results []*result.Result, d Detail) {
	j.keys, j.results, j.completed = keys, results, len(results)
	j.ProfileDoc = j.profileOf(results)
	if j.Points == 0 {
		d.Ev.Result = j.Key
	} else {
		d.Ev.Results = keys
	}
	p.finishLocked(j, StateDone, d)
	p.met.completed.Inc()
	p.met.sweepPoints.Add(uint64(j.Points))
	p.log.Info("job done", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "points", j.Points,
		"cache_hit", j.CacheHit, "coalesced", j.Coalesced, "ms", d.Dur.Milliseconds())
}

// failLocked moves j to failed. Callers hold p.mu.
func (p *Pool) failLocked(j *job, d Detail) {
	p.finishLocked(j, StateFailed, d)
	p.met.failed.Inc()
	p.log.Warn("job failed", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "coalesced", j.Coalesced, "err", d.Err)
}

// servedLocked completes the queued j, at admission or at dequeue, with
// the stored result of its key instead of executing it. Callers hold p.mu.
func (p *Pool) servedLocked(j *job, res *result.Result, disk bool, d Detail) {
	j.CacheHit = true
	p.doneLocked(j, []string{j.Key}, []*result.Result{res}, d)
	p.countHit(disk)
	obs.Record(obs.FlightJobDone, j.ID, d.Note)
}

// countHit counts a job or point served from a stored result; disk says the
// result log had it and the memory LRU did not.
func (p *Pool) countHit(disk bool) {
	p.met.cacheHits.Inc()
	if disk {
		p.met.diskHits.Inc()
	}
}

// lookup is how every job and every point is served without executing: it
// finds the stored result of key in the memory LRU, else in the store's
// result log, whose hit warms the LRU (disk reports that). A memory hit the
// log lacks, from a process life that never persisted it, is written to the
// log first, so the done line about to reference it never points at a
// missing result. nil when caching is off or neither holds key. Called
// without p.mu: the log is read and written with the pool unlocked.
func (p *Pool) lookup(key string) (res *result.Result, disk bool) {
	if p.cache == nil {
		return nil, false
	}
	p.mu.Lock()
	res, ok := p.cache.get(key)
	p.mu.Unlock()
	st := p.opts.Store
	if ok {
		if st != nil && !st.HasResult(key) {
			//lint:ignore journalerr best-effort backfill; failures count in store_journal_errors_total and the result stays served from memory
			_ = st.PutResult(key, res)
		}
		return res, false
	}
	if st == nil {
		return nil, false
	}
	if res, ok, err := st.GetResult(key); err == nil && ok {
		p.mu.Lock()
		p.cache.put(key, res)
		p.mu.Unlock()
		return res, true
	}
	return nil, false
}

// stored is the lookup that serves the whole of j at admission or dequeue.
// Only a plain job's key addresses a result: a sweep's is its template's,
// and its points are looked up one by one as it runs.
func (p *Pool) stored(j *job) (res *result.Result, disk bool) {
	if j.Points > 0 {
		return nil, false
	}
	return p.lookup(j.Key)
}

// recoverLocked replays the attached store's record table into the pool:
// terminal records become queryable job records whose results load
// lazily from disk, queued/running records are requeued (re-running a
// requeued job is safe — execution is deterministic in the cache key, so
// its counts are identical to what the lost run would have produced),
// and the LRU cache warms from the newest on-disk results. Callers hold
// p.mu; the workers have not started yet.
func (p *Pool) recoverLocked() {
	for _, rec := range p.opts.Store.Records() {
		// A done record carries the addresses its results load from: a plain
		// job's one, a sweep's one per point.
		j := &job{Record: Recovered(rec), pin: rec.Pin, keys: rec.Results, completed: len(rec.Results)}
		if rec.ResultKey != "" {
			j.keys = []string{rec.ResultKey}
		}
		j.Points = max(j.Points, len(rec.Results))
		p.met.recovered.Inc()
		p.Restore(j)
		if j.State.Terminal() {
			continue
		}
		// Queued or running at crash time: requeue.
		b, err := bundle.FromJSON(rec.Bundle, qop.ValidateOptions{})
		if err == nil && j.Points == 0 {
			err = PlainJob(b) // an older build took sweep bundles as plain jobs
		}
		if err != nil {
			// The journaled bundle no longer validates (schema drift,
			// torn result of an older bug): surface it as a failed
			// job instead of dropping the record on the floor.
			p.failLocked(j, Detail{Err: fmt.Errorf("jobs: recovery: %w", err)})
			continue
		}
		j.bundle = b
		j.Span("queued", 0, "requeued after restart")
		p.pending = append(p.pending, j)
		p.met.requeued.Inc()
		p.log.Info("job requeued", "job", j.ID, "trace", j.Trace, "engine", j.Engine)
	}
	if p.cache != nil {
		for _, key := range p.opts.Store.RecentResultKeys(p.opts.CacheSize) {
			if res, ok, err := p.opts.Store.GetResult(key); err == nil && ok {
				p.cache.put(key, res)
			}
		}
	}
}

// SubmitOptions carry per-job execution hints.
type SubmitOptions struct {
	// Shards pins the parallelism grant for this job (0 = let the
	// scheduler decide: MaxShards when the pool is otherwise idle at
	// start time, one shard when running alongside other jobs). Values
	// above Options.MaxShards are clamped.
	Shards int
	// TraceID is the inbound fleet-wide trace ID (X-Trace-Id). Empty or
	// invalid IDs are replaced with a fresh random one; the accepted ID
	// is in the returned Status and every journal event and log line.
	TraceID string
	// Profile turns on the kernel-granular execution profiler for this
	// job: the per-kernel table lands in the result's Meta["profile"] and
	// the status document's "profile" field. Observational only — counts
	// are bit-identical — but profiled jobs cache under a distinct key so
	// the table's presence is deterministic in the submission.
	Profile bool
}

// Submit registers the bundle as a job and enqueues it, returning the
// job's snapshot from the same critical section (no follow-up lookup that
// could miss an already-evicted record) once its submitted line — for a
// job born terminal, its done line — met the journal's fsync policy. If an
// identical submission (same canonical bundle JSON, shots and seed) already
// completed, the job is born terminal in StateDone with the cached result
// and never touches the queue; if one is currently executing, the job
// coalesces onto it and completes when it does. A saturated queue rejects
// with ErrQueueFull; a bundle with a sweep block, with ErrIsSweep.
func (p *Pool) Submit(b *bundle.Bundle, o SubmitOptions) (Status, error) {
	if err := PlainJob(b); err != nil {
		return Status{}, err
	}
	return p.submit(b, o, 0)
}

// submit is the one admission of plain jobs and sweeps (points > 0): the
// record is prepared and the stored result that would serve it looked up
// with the pool unlocked, then admitLocked enters it, and the call returns
// once the line that entered it met the fsync policy.
func (p *Pool) submit(b *bundle.Bundle, o SubmitOptions, points int) (Status, error) {
	j, submitted, err := p.prepare(b, o, points)
	if err != nil {
		return Status{}, err
	}
	res, disk := p.stored(j)
	p.mu.Lock()
	st, err := p.admitLocked(j, submitted, res, disk)
	p.mu.Unlock()
	if err != nil {
		return Status{}, err
	}
	p.Commit(j) // the 202 waits for its line, with the pool unlocked
	return st, nil
}

// admitLocked enters a prepared job: born done from res, the stored result
// of its key (disk: found in the result log), coalesced onto a running
// twin, or queued. Callers hold p.mu.
func (p *Pool) admitLocked(j *job, submitted Detail, res *result.Result, disk bool) (Status, error) {
	if p.closed {
		return Status{}, ErrClosed
	}
	if res != nil {
		// Born terminal: a submitted event without the bundle (nothing
		// will ever requeue it), then a done event referencing the
		// content-addressed result.
		p.Add(j, Detail{At: submitted.At})
		p.met.submitted.Inc()
		p.servedLocked(j, res, disk, Detail{At: submitted.At, Note: "cache hit"})
		return p.Snapshot(j), nil
	}
	// In-flight coalescing: an identical job is executing right now, so
	// attach to its completion instead of queueing a duplicate run. The
	// duplicate occupies no queue slot and exerts no backpressure. The
	// journal still records it as an independent queued job: if the
	// process dies before the primary finishes, the waiter requeues on
	// its own at recovery.
	switch primary, ok := p.inflight[j.Key]; {
	case ok:
		attachLocked(primary, j)
		submitted.Note = "coalesced onto " + primary.ID
		p.met.coalesced.Inc()
	case len(p.pending) >= p.opts.QueueDepth:
		p.met.rejected.Inc()
		return Status{}, ErrQueueFull
	default:
		p.pending = append(p.pending, j)
		p.cond.Signal()
		if j.Points > 0 {
			submitted.Note = fmt.Sprintf("sweep points=%d", j.Points)
		}
	}
	p.Add(j, submitted)
	p.met.submitted.Inc()
	if j.Points > 0 {
		p.met.sweeps.Inc()
	}
	obs.Record(obs.FlightJobQueued, j.ID, submitted.Note)
	p.log.Info("job queued", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "points", j.Points, "note", submitted.Note)
	return p.Snapshot(j), nil
}

// prepare builds, off-lock, the record of a submission (points > 0: a
// sweep's) and the detail of its submitted event. The content address
// feeds the result cache and in-flight coalescing — a sweep template's
// never collides with a per-point key, the sweep block being part of the
// context, nor with a plain job's, which has none (PlainJob) — and
// profiled submissions key separately so the profile's
// presence is deterministic in the submission. The event carries the
// canonical bundle JSON so a job that is queued or running at crash time
// can be reconstructed and requeued.
func (p *Pool) prepare(b *bundle.Bundle, o SubmitOptions, points int) (*job, Detail, error) {
	key, err := CacheKey(b)
	if err != nil {
		return nil, Detail{}, err
	}
	d := Detail{At: time.Now(), Ev: store.Event{Pin: o.Shards, Profile: o.Profile}}
	if p.opts.Store != nil {
		if d.Ev.Bundle, err = json.Marshal(b); err != nil {
			return nil, Detail{}, fmt.Errorf("jobs: marshal bundle: %w", err)
		}
	}
	// An engine that does not resolve is recorded as none; the job fails
	// with the scheduler's error when it runs.
	engine, _ := rt.ResolveEngine(b)
	return &job{
		Record: Record{Trace: obs.EnsureTraceID(o.TraceID), Key: profiledKey(key, o.Profile), Engine: engine, Profile: o.Profile, Points: points},
		bundle: b,
		pin:    o.Shards,
	}, d, nil
}

// attachLocked coalesces j onto the running primary. Callers hold p.mu.
func attachLocked(primary, j *job) {
	j.primary = primary
	primary.waiters = append(primary.waiters, j)
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.pending) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.pending) == 0 { // closed and drained
			p.mu.Unlock()
			return
		}
		j := p.pending[0]
		p.pending = p.pending[1:]
		p.mu.Unlock()
		p.runJob(j)
	}
}

// grantLocked counts j as running and decides its shard grant: a job
// starting into an otherwise idle pool takes the full cap so one big
// simulation spans every core; a job running alongside others (or with
// more work queued) stays single-shard; an explicit request is clamped to
// the cap. Callers hold p.mu.
func (p *Pool) grantLocked(j *job) int {
	p.running++
	granted := j.pin
	if granted <= 0 {
		granted = 1
		if p.running == 1 && len(p.pending) == 0 {
			granted = p.opts.MaxShards
		}
	}
	granted = min(granted, p.opts.MaxShards)
	if granted > 1 {
		p.met.wideJobs.Inc()
	}
	j.Shards = granted
	return granted
}

// runJob executes a dequeued job, plain or sweep alike. An identical job
// may have completed, or started, while this one waited in the queue: it is
// then served from the stored result or attached to the running twin
// before it takes a grant. Otherwise it is granted, moved to running and
// its points executed (execute), and one terminal move settles it and
// every job coalesced onto it.
func (p *Pool) runJob(j *job) {
	// The lookup runs unlocked, so Cancel may take the job meanwhile; a
	// result it wrote back to the log is harmless, being content-addressed.
	res, disk := p.stored(j)
	p.mu.Lock()
	if j.State != StateQueued { // canceled while queued
		p.mu.Unlock()
		return
	}
	if res != nil {
		now := time.Now()
		p.servedLocked(j, res, disk, Detail{At: now, Dur: now.Sub(j.Submitted), Note: "cache hit at dequeue"})
		p.met.queueWait.Observe(now.Sub(j.Submitted))
		p.mu.Unlock()
		return
	}
	// Coalesce at dequeue time too: an identical job that was queued
	// behind this one's twin is attached rather than re-executed. No
	// journal event — the job stays "queued" on disk and would requeue
	// standalone after a crash.
	if primary, ok := p.inflight[j.Key]; ok && primary != j {
		attachLocked(primary, j)
		j.Span("queued", 0, "coalesced onto "+primary.ID)
		p.met.coalesced.Inc()
		p.mu.Unlock()
		return
	}
	p.inflight[j.Key] = j
	granted := p.grantLocked(j)
	qubits := 0
	for _, d := range j.bundle.QDTs {
		qubits += d.Width
	}
	// A sweep announces how its grant splits for a grid with nothing
	// cached; the "executed" span carries the split that ran.
	note := fmt.Sprintf("shards=%d", granted)
	if j.Points > 0 {
		lanes, shards := sweepLanes(granted, j.Points, qubits)
		note = fmt.Sprintf("sweep points=%d lanes=%d shards=%d", j.Points, lanes, shards)
	}
	started := time.Now()
	_ = p.Transition(j, StateRunning, Detail{At: started, Dur: started.Sub(j.Submitted), Note: note})
	p.met.queueWait.Observe(started.Sub(j.Submitted))
	obs.Record(obs.FlightJobRunning, j.ID, note)
	p.log.Info("job started", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "points", j.Points, "shards", granted)
	p.mu.Unlock()

	keys, results, executed, err := p.execute(j, granted, qubits)

	p.mu.Lock()
	finished := time.Now()
	run := finished.Sub(started)
	p.running--
	if p.inflight[j.Key] == j {
		delete(p.inflight, j.Key)
	}
	p.met.runTime.Observe(run)
	if note = ""; j.Points > 0 {
		note = fmt.Sprintf("points=%d", j.Points)
	}
	if err != nil {
		p.failLocked(j, Detail{At: finished, Dur: run, Err: err})
		obs.Record(obs.FlightJobFailed, j.ID, err.Error())
	} else {
		j.CacheHit = executed == 0 // every point served without executing
		p.doneLocked(j, keys, results, Detail{At: finished, Dur: run, Note: note})
		obs.RecordDur(obs.FlightJobDone, j.ID, note, run)
	}
	// Complete every coalesced duplicate with the primary's outcome: the
	// same read-only results. The inflight entry is already gone, so no new
	// duplicate can attach.
	for _, w := range j.waiters {
		if w.State != StateQueued { // canceled while attached
			continue
		}
		w.primary = nil
		w.Coalesced = true
		w.Engine = j.Engine
		with := Detail{At: finished, Note: "with primary " + j.ID, Err: err}
		if err != nil {
			p.failLocked(w, with)
		} else {
			p.doneLocked(w, keys, results, with)
		}
		p.met.queueWait.Observe(finished.Sub(w.Submitted))
	}
	j.waiters = nil
	p.mu.Unlock()
}

// execute runs the points of the running job j on its grant and returns
// their content addresses and results in grid order, with how many points
// it executed. A plain job's one point is its bundle under j.Key; a
// sweep's are bound from its grid (bindGrid). Points with equal keys are
// one piece of work: each distinct key is looked up among the stored
// results, and the misses run on lanes (sweepLanes) over one
// runtime.Prepare handle, each persisting its result before publishing it.
// The first failure stops every lane.
func (p *Pool) execute(j *job, granted, qubits int) ([]string, []*result.Result, int, error) {
	b, grid := j.bundle, j.Points > 0
	concrete, keys := []*bundle.Bundle{b}, []string{j.Key}
	if grid {
		bound := time.Now()
		var err error
		if concrete, keys, err = bindGrid(b, j.Profile); err != nil {
			return nil, nil, 0, err
		}
		p.mu.Lock()
		j.Span("materialized", time.Since(bound), fmt.Sprintf("points=%d", len(keys)))
		p.mu.Unlock()
	}
	// Lanes write distinct indices of results (an owner's and its twins');
	// the worker reads them all once the lanes have returned.
	results := make([]*result.Result, len(keys))
	owners, twins := twinsOf(keys)
	// publishLocked completes point i and its twins with res; a twin is a
	// cache hit in all but name. Progress watchers see every point of a
	// grid (pointLocked). Callers hold p.mu.
	pointLocked := func(i int, res *result.Result) {
		results[i] = res
		j.completed++
		if grid {
			j.Touch()
		}
	}
	publishLocked := func(i int, res *result.Result) {
		pointLocked(i, res)
		for _, t := range twins[i] {
			pointLocked(t, res)
			p.met.cacheHits.Inc()
		}
	}
	var miss []int
	for _, i := range owners {
		// j.Key itself, a plain job's one point, was looked up at dequeue.
		if keys[i] != j.Key {
			if res, disk := p.lookup(keys[i]); res != nil {
				p.countHit(disk)
				p.mu.Lock()
				publishLocked(i, res)
				p.mu.Unlock()
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return keys, results, 0, nil
	}

	start := time.Now()
	lanes, shards := sweepLanes(granted, len(miss), qubits)
	opts := rt.Options{Shards: shards, Profile: j.Profile}
	if !grid {
		// The engine's stage timings become a plain job's spans; a sweep
		// would log them per point and drown its lifecycle log, so its
		// coarse spans cover it.
		opts.Stages = func(stage string, d time.Duration) {
			p.mu.Lock()
			j.Span(stage, d, "")
			p.mu.Unlock()
		}
	}
	h, err := rt.Prepare(b, opts)
	if err == nil {
		err = runLanes(lanes, miss, func(i int) error {
			res, err := h.Run(i, concrete[i])
			if err != nil {
				return err
			}
			// Persist before publishing, so the done line never references
			// a missing result. A crash in between replays the job as
			// running and re-runs it: deterministic in the cache key, so
			// with identical counts. PutResult is lock-free by design; the
			// cache is not.
			persisted := p.opts.Store != nil && p.opts.Store.PutResult(keys[i], res) == nil
			p.mu.Lock()
			if persisted && !grid {
				j.Span("persisted", 0, "")
			}
			publishLocked(i, res)
			if p.cache != nil {
				p.cache.put(keys[i], res)
			}
			p.mu.Unlock()
			return nil
		})
	}
	if grid {
		p.mu.Lock()
		j.Span("executed", time.Since(start), fmt.Sprintf("points=%d cached=%d lanes=%d shards=%d", len(miss), len(keys)-len(miss), lanes, shards))
		p.mu.Unlock()
	}
	return keys, results, len(miss), err
}

// Result returns the job's result once it is Done. A queued or running
// job returns ErrNotFinished; a failed job returns its execution error; a
// canceled job returns ErrCanceled; a sweep returns ErrIsSweep. The
// Result is shared, read-only: every job of its key (a cache hit, a twin
// point, a coalesced duplicate) holds the same one, so a caller must not
// modify it or reorder its Entries.
func (p *Pool) Result(id string) (*result.Result, error) {
	_, results, err := p.doneResults(id, false)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// doneResults returns the results of a done job in grid order, with its
// snapshot taken in the same critical section; sweep names the kind the
// caller asked for. A job recovered from the journal holds only the content
// addresses of its results: the first access loads them with the pool
// unlocked — a grid is up to MaxSweepPoints records — from the addresses
// snapshotted under the lock (a done job's never change). Concurrent first
// readers may each load them; the first to come back installs its results,
// and the profile they carry, for everyone.
func (p *Pool) doneResults(id string, sweep bool) (Status, []*result.Result, error) {
	p.mu.Lock()
	j, err := p.Get(id)
	switch {
	case err != nil:
	case sweep && j.Points == 0:
		err = fmt.Errorf("%w: %q", ErrNotSweep, id)
	case !sweep && j.Points > 0:
		err = fmt.Errorf("%w: its results are at GET /v1/sweeps/%s (SweepResult)", ErrIsSweep, id)
	default:
		err = NotDoneError(id, j.State, j.Err)
	}
	if err == nil && j.results == nil && (p.opts.Store == nil || len(j.keys) == 0) {
		err = fmt.Errorf("jobs: results of %q are gone (nothing retained them)", id)
	}
	if err != nil {
		p.mu.Unlock()
		return Status{}, nil, err
	}
	if j.results == nil {
		keys := j.keys
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
		profile := j.profileOf(loaded)
		p.mu.Lock()
		if j.results == nil {
			// The profile materializes with the results, a change its
			// watchers see.
			if j.results, j.ProfileDoc = loaded, profile; profile != nil {
				j.Touch()
			}
		}
	}
	st, results := p.Snapshot(j), j.results
	p.mu.Unlock()
	return st, results, nil
}

// NotDoneError is what asking for the result of a job in the given state
// answers: nil when it is done, failure when it failed, ErrCanceled, or
// ErrNotFinished while it is queued or running.
func NotDoneError(id string, state State, failure error) error {
	switch state {
	case StateDone:
		return nil
	case StateFailed:
		return failure
	case StateCanceled:
		return fmt.Errorf("%w: %q", ErrCanceled, id)
	default:
		return fmt.Errorf("%w: %q is %s", ErrNotFinished, id, state)
	}
}

// WriteResult is Result as the encoded ResultDoc.
func (p *Pool) WriteResult(_ context.Context, w io.Writer, id string) error {
	res, err := p.Result(id)
	if err != nil {
		return err
	}
	return writeResultDoc(w, id, res)
}

// Cancel cancels a job that is still in the queue, including a duplicate
// that coalesced onto a running primary: the duplicate detaches and
// cancels alone — the primary and any other attached duplicates are
// untouched. Running jobs cannot be preempted (the backends are
// synchronous), and terminal jobs cannot be canceled: both are
// ErrConflict. The returned snapshot is taken before retention can evict
// the canceled record.
func (p *Pool) Cancel(_ context.Context, id string) (Status, error) {
	p.mu.Lock()
	j, st, err := p.cancelLocked(id)
	p.mu.Unlock()
	if err != nil {
		return Status{}, err
	}
	p.Commit(j) // the 200 waits for the canceled line, with the pool unlocked
	return st, nil
}

// cancelLocked is Cancel's critical section. Callers hold p.mu.
func (p *Pool) cancelLocked(id string) (*job, Status, error) {
	j, err := p.Get(id)
	if err != nil {
		return nil, Status{}, err
	}
	if j.State == StateRunning {
		return nil, Status{}, fmt.Errorf("%w: %q is running and cannot be preempted", ErrConflict, id)
	}
	now := time.Now()
	if err := p.Transition(j, StateCanceled, Detail{At: now, Dur: now.Sub(j.Submitted)}); err != nil {
		return nil, Status{}, err // already terminal
	}
	j.bundle = nil
	same := func(q *job) bool { return q == j }
	if j.primary != nil {
		// Coalesced duplicate: detach only this waiter so the primary
		// stops referencing it (a long-running primary must not pin every
		// canceled duplicate in memory) and its completion sweep no longer
		// considers it.
		j.primary.waiters = slices.DeleteFunc(j.primary.waiters, same)
		j.primary = nil
	} else {
		// Drop the job from the pending FIFO (if a worker has not already
		// popped it) so the queue slot frees immediately and backpressure
		// relaxes without waiting for a worker.
		p.pending = slices.DeleteFunc(p.pending, same)
	}
	p.met.canceled.Inc()
	obs.Record(obs.FlightJobCanceled, j.ID, "")
	p.log.Info("job canceled", "job", j.ID, "trace", j.Trace)
	return j, p.Snapshot(j), nil
}

// Metrics returns the registry the pool's instruments live in (the one
// from Options.Metrics, or the pool's private registry). NewHandler
// serves it on GET /metrics.
func (p *Pool) Metrics() *obs.Registry { return p.reg }

// Logger returns the pool's logger (Options.Logger, or one that discards).
func (p *Pool) Logger() *slog.Logger { return p.log }

// Engines lists the engines registered in this process.
func (p *Pool) Engines(context.Context) ([]string, error) { return backend.Engines(), nil }

// Close stops accepting submissions, drains the queue, and waits for the
// workers to exit. Jobs still queued at Close time are executed; their
// waiters complete with them. Submissions arriving while the pool drains
// fail fast with ErrClosed — they never block on the dying queue. The
// attached store (if any) is flushed to disk before Close returns, but
// not closed: the owner closes it once no more journaling can happen.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
	if p.opts.Store != nil {
		//lint:ignore journalerr final courtesy flush on shutdown; every event already met its policy's durability barrier when appended
		_ = p.opts.Store.Sync()
	}
}
