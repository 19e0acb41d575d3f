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
// with the same result the moment the primary finishes. Every job records
// its lifecycle (queued → running → done/failed, or canceled while
// queued) with queue-wait and run-time metrics aggregated into Stats.
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
// directory), accepted work is durable. Every lifecycle transition
// appends one journal event — submitted (with the canonical bundle JSON),
// started, done/failed/canceled, and forget when bounded retention evicts
// a record — and completed results are written as content-addressed files
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
//     (Stats.DiskHits), so identical resubmissions across restarts still
//     skip execution.
//
// # Sweep jobs
//
// A bundle whose context carries a sweep block — parameter names plus a
// point grid — enters through SubmitSweep as ONE job: one journal
// record (the submitted event stores the template with its grid), one
// queue slot, one worker turn fanning out per point. The worker materializes
// each point with bundle.BindPoint, which substitutes the point's
// values into the "$name" markers and strips the sweep block: the
// result is byte-for-byte the bundle a caller would have submitted for
// that point alone. The per-point cache key is derived from that
// concrete bundle exactly as a plain submission's would be (canonical
// bundle JSON + resolved shots and seed, see CacheKey), so sweep points
// hit, and populate, the same content-addressed cache as individual
// jobs — a sweep after a per-point run (or vice versa) re-executes
// nothing.
//
// Execution goes through runtime.PrepareSweep: the symbolic template
// compiles once into a sim.ParamPlan and each point binds into it. The
// job's grant G — the same shard grant a plain job gets — is spent as
// lanes × shards (see sweepLanes): L = min(G, points not served from a
// cache) goroutines, the worker one of them, each pulling the next point
// from a shared counter, executing it on G/L shards, persisting and
// publishing it; L·2^qubits never exceeds 2^sim.MaxQubits resident
// amplitudes. A sweep beside other running work has G = 1 and is the
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
	"sort"
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

// Lifecycle states. Queued jobs may move to Running or Canceled; Running
// jobs finish Done or Failed. Done, Failed and Canceled are terminal.
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
	// ErrIsSweep a single result of a sweep: each kind has its own route.
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
	// transition appends to the store's journal, results persist as
	// content-addressed files, and NewPool replays the journal —
	// terminal jobs stay queryable across restarts, jobs that were
	// queued or running at crash time are requeued, and the result
	// cache rehydrates from disk. The pool does not close the store;
	// the owner does, after Close returns. Journal append failures are
	// counted (Stats.Errors) but never fail the job operation — the
	// service degrades to in-memory rather than rejecting work.
	Store *store.Store
	// Run is forwarded to runtime.Submit for every job.
	Run rt.Options
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

// Stats aggregates pool-level counters and timing metrics.
type Stats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueLen   int    `json:"queue_len"`
	Running    int    `json:"running"`
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Canceled   uint64 `json:"canceled"`
	// Rejected counts submissions refused with ErrQueueFull.
	Rejected uint64 `json:"rejected"`
	// CacheHits counts submissions served from the content-addressed
	// result cache without re-execution.
	CacheHits uint64 `json:"cache_hits"`
	CacheSize int    `json:"cache_size"`
	// Coalesced counts submissions that attached to an identical
	// in-flight job instead of executing.
	Coalesced uint64 `json:"coalesced"`
	// MaxShards is the per-job parallelism cap; WideJobs counts jobs that
	// ran with more than one shard (the lone-big-job grant).
	MaxShards  int           `json:"max_shards"`
	WideJobs   uint64        `json:"wide_jobs"`
	TotalQueue time.Duration `json:"total_queue_ns"`
	TotalRun   time.Duration `json:"total_run_ns"`
	// Persistence counters (all zero unless Options.Store is attached).
	// Recovered counts job records restored from the journal at boot;
	// Requeued counts the subset that was queued or running at crash
	// time and re-entered the queue; DiskHits counts submissions served
	// from an on-disk result that was no longer in the memory cache.
	Recovered uint64 `json:"recovered"`
	Requeued  uint64 `json:"requeued"`
	DiskHits  uint64 `json:"disk_hits"`
	// Sweeps counts sweep submissions accepted; SweepPoints counts points
	// completed by done sweeps (cached points included).
	Sweeps      uint64 `json:"sweeps"`
	SweepPoints uint64 `json:"sweep_points"`
	// Build identifies the serving binary (Go version, VCS revision) so
	// fleet operators can tell mixed-version workers apart.
	Build obs.BuildInfo `json:"build"`
	// Journal/result-file counters from the attached store, inlined.
	store.Stats
}

// poolMetrics are the registry-backed instruments behind Stats: the
// counters are the system of record (Stats() reads them back), and the
// histograms additionally expose queue-wait and run-time distributions
// on /metrics (their exact nanosecond sums are Stats' total_queue_ns and
// total_run_ns).
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

// job is the internal record; all fields after construction are guarded
// by Pool.mu except done, which is closed exactly once under mu.
type job struct {
	id        string
	trace     string // fleet-wide trace ID
	bundle    *bundle.Bundle
	key       string
	state     State
	engine    string
	cacheHit  bool
	coalesced bool // served by attaching to an identical in-flight job
	shards    int  // submitter's explicit parallelism request (0 = scheduler)
	granted   int  // shards granted when the job started running
	profile   bool // run with the kernel-granular profiler on
	// profileDoc is the extracted Meta["profile"] JSON of a completed
	// profiled job, surfaced in Status next to the span log.
	profileDoc json.RawMessage
	waiters    []*job // identical submissions coalesced onto this running job
	primary    *job   // the running job this one is attached to (waiters only)
	resKey     string // content address of the on-disk result (recovered jobs)
	// sweep is non-nil for sweep jobs (SubmitSweep): per-point progress,
	// result keys and results. Such a job occupies one queue slot and one
	// journal record but fans out per point when it runs.
	sweep     *sweepState
	err       error
	res       *result.Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	spans     []obs.Span // lifecycle log, appended in transition order
	rev       Revision   // bumped on every status-visible change (see Revision)
	done      chan struct{}
}

// spanLocked appends one lifecycle span. Callers hold p.mu.
func (j *job) spanLocked(stage string, d time.Duration, note string) {
	j.spans = append(j.spans, obs.NewSpan(stage, d, note))
}

// Pool is a concurrent job scheduler over runtime.Submit.
type Pool struct {
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
	jobs    map[string]*job
	// inflight maps a cache key to the job currently executing it, so
	// identical submissions coalesce onto the running job instead of
	// executing twice. Entries exist only while the primary is running.
	inflight map[string]*job
	cache    *resultCache
	nextID   uint64
	running  int
	closed   bool
	stats    Stats
	// terminal holds finished job IDs in completion order for bounded
	// record retention (Options.MaxRecords).
	terminal []string
}

// NewPool starts a pool with opts.Workers executor goroutines. Call Close
// to drain and stop them. When Options.Store is set, the store's journal
// is replayed first: terminal jobs are re-exposed for Status/Result
// lookups, jobs that were queued or running at crash time are requeued
// (same job IDs, so pre-crash handles keep resolving), and the result
// cache rehydrates from the on-disk result files.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{
		opts:     opts,
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
	}
	p.cond = sync.NewCond(&p.mu)
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

// journal appends a lifecycle event to the attached store. Persistence
// failures are counted by the store and deliberately do not fail the job
// operation: the pool degrades to in-memory service instead of rejecting
// accepted work.
func (p *Pool) journal(ev store.Event) {
	if p.opts.Store == nil {
		return
	}
	//lint:ignore journalerr persistence failures count in store_journal_errors_total; the pool degrades to in-memory service rather than failing accepted work
	_ = p.opts.Store.Append(ev)
}

// recoverLocked replays the attached store's record table into the pool:
// terminal records become queryable job records whose results load
// lazily from disk, queued/running records are requeued (re-running a
// requeued job is safe — execution is deterministic in the cache key, so
// its counts are identical to what the lost run would have produced),
// and the LRU cache warms from the newest on-disk results. Callers hold
// p.mu; the workers have not started yet.
func (p *Pool) recoverLocked() {
	maxID := uint64(0)
	for _, rec := range p.opts.Store.Records() {
		var n uint64
		if _, err := fmt.Sscanf(rec.Job, "job-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		j := &job{
			id:        rec.Job,
			trace:     rec.Trace,
			key:       rec.Key,
			engine:    rec.Engine,
			profile:   rec.Profile,
			submitted: rec.Submitted,
			done:      make(chan struct{}),
		}
		p.met.recovered.Inc()
		// Sweep records carry the grid size (and, when done, the per-point
		// result addresses); reconstruct the sweep state so Status reports
		// the job as a sweep and SweepResult can lazy-load from disk.
		if rec.Points > 0 {
			j.sweep = &sweepState{points: rec.Points}
		}
		switch rec.State {
		case store.StateDone:
			j.state = StateDone
			j.cacheHit = rec.CacheHit
			j.coalesced = rec.Coalesced
			j.granted = rec.Shards
			j.started = rec.Started
			j.finished = rec.Finished
			j.resKey = rec.ResultKey
			if len(rec.Results) > 0 {
				if j.sweep == nil {
					j.sweep = &sweepState{}
				}
				j.sweep.keys = append([]string(nil), rec.Results...)
				j.sweep.completed = len(rec.Results)
				if j.sweep.points == 0 {
					j.sweep.points = len(rec.Results)
				}
			}
			p.jobs[j.id] = j
			p.finishLocked(j)
		case store.StateFailed:
			j.state = StateFailed
			j.coalesced = rec.Coalesced
			j.granted = rec.Shards
			j.started = rec.Started
			j.finished = rec.Finished
			j.err = errors.New(rec.Error)
			p.jobs[j.id] = j
			p.finishLocked(j)
		case store.StateCanceled:
			j.state = StateCanceled
			j.finished = rec.Finished
			p.jobs[j.id] = j
			p.finishLocked(j)
		default: // queued or running at crash time: requeue
			b, err := bundle.FromJSON(rec.Bundle, p.ValidateOptions())
			if err != nil {
				// The journaled bundle no longer validates (schema drift,
				// torn result of an older bug): surface it as a failed
				// job instead of dropping the record on the floor.
				j.state = StateFailed
				j.err = fmt.Errorf("jobs: recovery: %w", err)
				j.finished = time.Now()
				p.met.failed.Inc()
				p.jobs[j.id] = j
				p.journal(store.Event{T: store.EvFailed, Job: j.id, At: j.finished, Error: j.err.Error()})
				p.finishLocked(j)
				p.log.Warn("job failed at recovery", "job", j.id, "trace", j.trace, "err", j.err)
				continue
			}
			j.state = StateQueued
			j.bundle = b
			j.shards = rec.Pin // explicit grant requests survive the crash
			j.spanLocked("queued", 0, "requeued after restart")
			p.jobs[j.id] = j
			p.pending = append(p.pending, j)
			p.met.requeued.Inc()
			p.log.Info("job requeued", "job", j.id, "trace", j.trace, "engine", j.engine)
		}
	}
	if maxID > p.nextID {
		p.nextID = maxID
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
// could miss an already-evicted record). If an identical submission (same
// canonical bundle JSON, shots and seed) already completed, the job is
// born terminal in StateDone with the cached result and never touches the
// queue; if one is currently executing, the job coalesces onto it and
// completes when it does. A saturated queue rejects with ErrQueueFull.
func (p *Pool) Submit(b *bundle.Bundle, o SubmitOptions) (Status, error) {
	if b == nil {
		return Status{}, fmt.Errorf("jobs: nil bundle")
	}
	// The content address feeds both the result cache and in-flight
	// coalescing; profiled submissions key separately so the profile's
	// presence is deterministic in the submission.
	key, err := CacheKey(b)
	if err != nil {
		return Status{}, err
	}
	key = profiledKey(key, o.Profile)
	engine := ResolveEngine(b)
	// The journal records the canonical bundle JSON so a job that is
	// queued or running at crash time can be reconstructed and requeued.
	var rawBundle json.RawMessage
	if p.opts.Store != nil {
		rawBundle, err = json.Marshal(b)
		if err != nil {
			return Status{}, fmt.Errorf("jobs: marshal bundle: %w", err)
		}
	}
	now := time.Now()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return Status{}, ErrClosed
	}
	p.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%08d", p.nextID),
		trace:     obs.EnsureTraceID(o.TraceID),
		bundle:    b,
		key:       key,
		state:     StateQueued,
		engine:    engine,
		shards:    o.Shards,
		profile:   o.Profile,
		submitted: now,
		done:      make(chan struct{}),
	}
	if p.cache != nil {
		res, hit := p.cache.get(key)
		if !hit && p.opts.Store != nil {
			// Second-level lookup: the result may live on disk (from a
			// previous process life) without being in the memory LRU.
			if dres, ok, derr := p.opts.Store.GetResult(key); derr == nil && ok {
				res, hit = dres, true
				p.cache.put(key, dres)
				p.met.diskHits.Inc()
			}
		}
		if hit {
			j.state = StateDone
			j.res = res
			j.cacheHit = true
			j.profileDoc = profileRaw(res)
			j.finished = now
			j.spanLocked("queued", 0, "")
			j.spanLocked("done", 0, "cache hit")
			p.met.submitted.Inc()
			p.met.cacheHits.Inc()
			p.met.completed.Inc()
			p.jobs[j.id] = j
			p.journalCacheHitLocked(j, res)
			p.finishLocked(j)
			obs.Record(obs.FlightJobDone, j.id, "cache hit")
			p.log.Info("job done", "job", j.id, "trace", j.trace, "engine", j.engine, "cache_hit", true)
			return p.statusLocked(j), nil
		}
	}
	// In-flight coalescing: an identical job is executing right now, so
	// attach to its completion instead of queueing a duplicate run. The
	// duplicate occupies no queue slot and exerts no backpressure. The
	// journal still records it as an independent queued job: if the
	// process dies before the primary finishes, the waiter requeues on
	// its own at recovery.
	if primary, ok := p.inflight[key]; ok {
		attachLocked(primary, j)
		j.spanLocked("queued", 0, "coalesced onto "+primary.id)
		p.jobs[j.id] = j
		p.met.submitted.Inc()
		p.met.coalesced.Inc()
		p.journal(store.Event{T: store.EvSubmitted, Job: j.id, At: now, Trace: j.trace, Key: key, Engine: engine, Bundle: rawBundle, Pin: o.Shards, Profile: o.Profile})
		obs.Record(obs.FlightJobQueued, j.id, "coalesced onto "+primary.id)
		p.log.Info("job coalesced", "job", j.id, "trace", j.trace, "engine", engine, "primary", primary.id)
		return p.statusLocked(j), nil
	}
	if len(p.pending) >= p.opts.QueueDepth {
		p.met.rejected.Inc()
		return Status{}, ErrQueueFull
	}
	j.spanLocked("queued", 0, "")
	p.pending = append(p.pending, j)
	p.jobs[j.id] = j
	p.met.submitted.Inc()
	p.journal(store.Event{T: store.EvSubmitted, Job: j.id, At: now, Trace: j.trace, Key: key, Engine: engine, Bundle: rawBundle, Pin: o.Shards, Profile: o.Profile})
	obs.Record(obs.FlightJobQueued, j.id, "")
	p.log.Info("job queued", "job", j.id, "trace", j.trace, "engine", engine)
	p.cond.Signal()
	return p.statusLocked(j), nil
}

// attachLocked coalesces j onto the running primary. Callers hold p.mu.
func attachLocked(primary, j *job) {
	j.primary = primary
	primary.waiters = append(primary.waiters, j)
}

// journalCacheHitLocked records a submission that was born terminal from
// the result cache: a submitted event (no bundle — nothing will ever
// requeue it) followed by a done event referencing the content-addressed
// result, which is written to disk first if some earlier process life
// never persisted it. Callers hold p.mu.
func (p *Pool) journalCacheHitLocked(j *job, res *result.Result) {
	if p.opts.Store == nil {
		return
	}
	if !p.opts.Store.HasResult(j.key) {
		//lint:ignore journalerr best-effort backfill; failures count in store_journal_errors_total and the result stays served from cache
		_ = p.opts.Store.PutResult(j.key, res)
	}
	p.journal(store.Event{T: store.EvSubmitted, Job: j.id, At: j.submitted, Trace: j.trace, Key: j.key, Engine: j.engine})
	p.journal(store.Event{T: store.EvDone, Job: j.id, At: j.finished, Engine: j.engine, CacheHit: true, Result: j.key})
}

// finishLocked marks a job terminal: closes its done channel, drops the
// submission payload (only the result and status are ever read after a
// terminal transition), and evicts the oldest terminal records beyond
// Options.MaxRecords. Callers hold p.mu and must have set the terminal
// state and finished time already.
func (p *Pool) finishLocked(j *job) {
	j.rev.Bump()
	close(j.done)
	j.bundle = nil
	if p.opts.MaxRecords < 0 {
		return
	}
	p.terminal = append(p.terminal, j.id)
	for len(p.terminal) > p.opts.MaxRecords {
		evicted := p.terminal[0]
		delete(p.jobs, evicted)
		p.terminal = p.terminal[1:]
		// Keep the journal's record table in lockstep with the pool's
		// bounded retention, so compaction can drop the evicted job's
		// lines and restarts replay the same bounded history.
		p.journal(store.Event{T: store.EvForget, Job: evicted, At: time.Now()})
	}
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

func (p *Pool) runJob(j *job) {
	// j.sweep is assigned before the job ever enters the pending queue
	// (under p.mu at submit or recovery), and the worker dequeued j under
	// the same mutex, so this unlocked read is ordered.
	if j.sweep != nil {
		p.runSweepJob(j)
		return
	}
	p.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		p.mu.Unlock()
		return
	}
	// Re-check the cache at dequeue time: an identical job may have
	// completed while this one waited in the queue.
	if p.cache != nil {
		if res, ok := p.cache.get(j.key); ok {
			if p.opts.Store != nil && !p.opts.Store.HasResult(j.key) {
				// Backfill the content-addressed result file (an earlier
				// process life never persisted it) off-lock: its fsync must
				// not stall submitters. Cancel can take the job while the
				// lock is down, so re-check before going terminal; the
				// orphaned result file is harmless (content-addressed, and
				// the next identical job reuses it).
				p.mu.Unlock()
				//lint:ignore journalerr best-effort backfill; failures count in store_journal_errors_total and the result stays served from cache
				_ = p.opts.Store.PutResult(j.key, res)
				p.mu.Lock()
				if j.state != StateQueued {
					p.mu.Unlock()
					return
				}
			}
			j.state = StateDone
			j.res = res
			j.cacheHit = true
			j.profileDoc = profileRaw(res)
			j.finished = time.Now()
			j.spanLocked("done", j.finished.Sub(j.submitted), "cache hit at dequeue")
			p.met.queueWait.Observe(j.finished.Sub(j.submitted))
			p.met.cacheHits.Inc()
			p.met.completed.Inc()
			if p.opts.Store != nil {
				p.journal(store.Event{T: store.EvDone, Job: j.id, At: j.finished, Engine: j.engine, CacheHit: true, Result: j.key})
			}
			p.finishLocked(j)
			obs.Record(obs.FlightJobDone, j.id, "cache hit at dequeue")
			p.log.Info("job done", "job", j.id, "trace", j.trace, "engine", j.engine, "cache_hit", true)
			p.mu.Unlock()
			return
		}
	}
	// Coalesce at dequeue time too: an identical job that was queued
	// behind this one's twin is attached rather than re-executed. No
	// journal event — the job stays "queued" on disk and would requeue
	// standalone after a crash.
	if primary, ok := p.inflight[j.key]; ok && primary != j {
		attachLocked(primary, j)
		j.spanLocked("queued", 0, "coalesced onto "+primary.id)
		p.met.coalesced.Inc()
		p.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	p.running++
	p.inflight[j.key] = j
	// Shard grant: a job starting into an otherwise idle pool takes the
	// full cap so one big simulation spans every core; a job running
	// alongside others (or with more work queued) stays single-shard.
	granted := j.shards
	if granted <= 0 {
		if p.running == 1 && len(p.pending) == 0 {
			granted = p.opts.MaxShards
		} else {
			granted = 1
		}
	}
	if granted > p.opts.MaxShards {
		granted = p.opts.MaxShards
	}
	j.granted = granted
	j.rev.Bump()
	if granted > 1 {
		p.met.wideJobs.Inc()
	}
	p.met.queueWait.Observe(j.started.Sub(j.submitted))
	j.spanLocked("started", j.started.Sub(j.submitted), fmt.Sprintf("shards=%d", granted))
	p.journal(store.Event{T: store.EvStarted, Job: j.id, At: j.started, Shards: granted})
	obs.Record(obs.FlightJobRunning, j.id, fmt.Sprintf("shards=%d", granted))
	p.log.Info("job started", "job", j.id, "trace", j.trace, "engine", j.engine, "shards", granted)
	runOpts := p.opts.Run
	runOpts.Shards = granted
	runOpts.Profile = j.profile
	// Per-stage timings from the engine become spans on this job; the
	// callback runs on the worker goroutine with p.mu released.
	runOpts.Stages = func(stage string, d time.Duration) {
		p.mu.Lock()
		j.spanLocked(stage, d, "")
		p.mu.Unlock()
	}
	p.mu.Unlock()

	res, err := rt.Submit(j.bundle, runOpts)

	// Persist the result before journaling the terminal transition, so a
	// "done" record on disk never references a missing result file. A
	// crash in between replays as "running" and simply re-runs the job —
	// deterministic in the cache key, so the rerun's counts are
	// identical.
	persisted := false
	if err == nil && res != nil && p.opts.Store != nil {
		persisted = p.opts.Store.PutResult(j.key, res) == nil
	}

	p.mu.Lock()
	j.finished = time.Now()
	p.running--
	if p.inflight[j.key] == j {
		delete(p.inflight, j.key)
	}
	p.met.runTime.Observe(j.finished.Sub(j.started))
	if persisted {
		j.spanLocked("persisted", 0, "")
	}
	if err != nil {
		j.state = StateFailed
		j.err = err
		j.spanLocked("failed", j.finished.Sub(j.started), "")
		p.met.failed.Inc()
		p.journal(store.Event{T: store.EvFailed, Job: j.id, At: j.finished, Engine: j.engine, Error: err.Error()})
		obs.Record(obs.FlightJobFailed, j.id, err.Error())
		p.log.Warn("job failed", "job", j.id, "trace", j.trace, "engine", j.engine, "err", err)
	} else {
		j.state = StateDone
		j.res = res
		j.profileDoc = profileRaw(res)
		if res != nil {
			j.engine = res.Engine
		}
		j.spanLocked("done", j.finished.Sub(j.started), "")
		p.met.completed.Inc()
		if p.cache != nil {
			p.cache.put(j.key, res)
		}
		p.journal(store.Event{T: store.EvDone, Job: j.id, At: j.finished, Engine: j.engine, Result: j.key})
		obs.RecordDur(obs.FlightJobDone, j.id, "", j.finished.Sub(j.started))
		p.log.Info("job done", "job", j.id, "trace", j.trace, "engine", j.engine, "run_ms", j.finished.Sub(j.started).Milliseconds())
	}
	p.finishLocked(j)
	waiters := j.waiters
	j.waiters = nil
	p.mu.Unlock()
	if len(waiters) == 0 {
		return
	}
	// Complete every coalesced duplicate with the primary's outcome.
	// Result copies (private per job, so sorting one job's entries cannot
	// race with another consumer of the same execution) are made outside
	// the critical section: the waiter count is not bounded by the queue
	// depth, and the pool lock must not be held for O(waiters × result).
	// The inflight entry is already gone, so no new duplicate can attach;
	// Cancel detaches waiters from j.waiters, but that slice is already
	// severed, so a waiter canceled in this window is caught by the state
	// check below instead.
	copies := make([]*result.Result, len(waiters))
	if err == nil && res != nil {
		for i := range waiters {
			copies[i] = copyResult(res)
		}
	}
	p.mu.Lock()
	for i, w := range waiters {
		if w.state != StateQueued { // canceled while attached
			continue
		}
		w.primary = nil
		w.finished = j.finished
		w.coalesced = true
		w.engine = j.engine
		if err != nil {
			w.state = StateFailed
			w.err = err
			w.spanLocked("failed", 0, "with primary "+j.id)
			p.met.failed.Inc()
			p.journal(store.Event{T: store.EvFailed, Job: w.id, At: w.finished, Engine: w.engine, Coalesced: true, Error: err.Error()})
			p.log.Warn("job failed", "job", w.id, "trace", w.trace, "engine", w.engine, "coalesced", true, "err", err)
		} else {
			w.state = StateDone
			w.res = copies[i]
			w.profileDoc = j.profileDoc
			w.spanLocked("done", 0, "with primary "+j.id)
			p.met.completed.Inc()
			p.journal(store.Event{T: store.EvDone, Job: w.id, At: w.finished, Engine: w.engine, Coalesced: true, Result: w.key})
			p.log.Info("job done", "job", w.id, "trace", w.trace, "engine", w.engine, "coalesced", true)
		}
		p.met.queueWait.Observe(w.finished.Sub(w.submitted))
		p.finishLocked(w)
	}
	p.mu.Unlock()
}

// Status returns a snapshot of the job's lifecycle.
func (p *Pool) Status(id string) (Status, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return p.statusLocked(j), nil
}

// statusLocked snapshots a job; callers hold p.mu.
func (p *Pool) statusLocked(j *job) Status {
	s := Status{
		ID:          j.id,
		Trace:       j.trace,
		State:       j.state,
		Engine:      j.engine,
		CacheHit:    j.cacheHit,
		Coalesced:   j.coalesced,
		Shards:      j.granted,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Spans:       append([]obs.Span(nil), j.spans...),
		Rev:         j.rev.N(),
	}
	s.Profile = j.profileDoc
	if j.sweep != nil {
		s.Sweep = true
		s.Points = j.sweep.points
		s.PointsDone = j.sweep.completed
	}
	s.SetProgress()
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Result returns the job's result once it is Done. A queued or running
// job returns ErrNotFinished; a failed job returns its execution error; a
// canceled job returns ErrCanceled; a sweep returns ErrIsSweep. Repeated calls for the same job ID
// share one Result (the cache keeps private copies, so mutating it cannot
// poison other jobs) — concurrent readers of one job must coordinate
// before calling methods that reorder Entries, such as Sort.
func (p *Pool) Result(id string) (*result.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if j.sweep != nil {
		return nil, fmt.Errorf("%w: its results are at GET /v1/sweeps/%s (SweepResult)", ErrIsSweep, id)
	}
	if err := NotDoneError(id, j.state, j.err); err != nil {
		return nil, err
	}
	// A job recovered from the journal holds only the content address of
	// its result; load the file on first access.
	if j.res == nil && j.resKey != "" && p.opts.Store != nil {
		res, ok, err := p.opts.Store.GetResult(j.resKey)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("jobs: result file for %q (%s) is gone", id, j.resKey)
		}
		j.res = res
		if j.profileDoc = profileRaw(res); j.profileDoc != nil {
			j.rev.Bump()
		}
	}
	return j.res, nil
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
	WriteDoc(w, ResultDoc{ID: id, Engine: res.Engine, Samples: res.Samples, Entries: entryDocs(res), Meta: res.Meta})
	return nil
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
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		if j.primary != nil {
			// Coalesced duplicate: detach only this waiter so the
			// primary stops referencing it (a long-running primary must
			// not pin every canceled duplicate in memory) and its
			// completion sweep no longer considers it.
			ws := j.primary.waiters
			for i, w := range ws {
				if w == j {
					j.primary.waiters = append(ws[:i], ws[i+1:]...)
					break
				}
			}
			j.primary = nil
		} else {
			// Drop the job from the pending FIFO (if a worker has not
			// already popped it) so the queue slot frees immediately and
			// backpressure relaxes without waiting for a worker.
			for i, q := range p.pending {
				if q == j {
					p.pending = append(p.pending[:i], p.pending[i+1:]...)
					break
				}
			}
		}
		j.state = StateCanceled
		j.finished = time.Now()
		j.spanLocked("canceled", j.finished.Sub(j.submitted), "")
		p.met.canceled.Inc()
		p.journal(store.Event{T: store.EvCanceled, Job: j.id, At: j.finished})
		obs.Record(obs.FlightJobCanceled, j.id, "")
		p.log.Info("job canceled", "job", j.id, "trace", j.trace)
		p.finishLocked(j)
		return p.statusLocked(j), nil
	case StateRunning:
		return Status{}, fmt.Errorf("%w: %q is running and cannot be preempted", ErrConflict, id)
	default:
		return Status{}, fmt.Errorf("%w: %q is already %s", ErrConflict, id, j.state)
	}
}

// Wait blocks until the job reaches a terminal state, then returns its
// status. The snapshot comes from the job record Wait already holds, so
// it stays valid even if the record is evicted from lookup (MaxRecords)
// while waiting.
func (p *Pool) Wait(id string) (Status, error) {
	p.mu.Lock()
	j, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	<-j.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.statusLocked(j), nil
}

// WaitTimeout is the long-poll primitive behind GET /v1/jobs/{id}?wait=D&rev=N:
// it blocks until the job's revision exceeds since, the job is terminal,
// d elapses or ctx ends (the client hung up, the server is shutting
// down), then returns the job's status at that moment. since = NoRev
// waits for the terminal transition only; a non-positive d degenerates
// to Status.
func (p *Pool) WaitTimeout(ctx context.Context, id string, d time.Duration, since uint64) (Status, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	j.rev.Await(ctx, &p.mu, j.done, d, since)
	return p.statusLocked(j), nil
}

// Metrics returns the registry the pool's instruments live in (the one
// from Options.Metrics, or the pool's private registry). NewHandler
// serves it on GET /metrics.
func (p *Pool) Metrics() *obs.Registry { return p.reg }

// Logger returns the pool's logger (Options.Logger, or one that discards).
func (p *Pool) Logger() *slog.Logger { return p.log }

// ValidateOptions is how a submitted bundle is validated before Submit.
func (p *Pool) ValidateOptions() qop.ValidateOptions {
	return qop.ValidateOptions{AllowMidCircuit: p.opts.Run.AllowMidCircuit}
}

// Engines lists the engines registered in this process.
func (p *Pool) Engines(context.Context) ([]string, error) { return backend.Engines(), nil }

// StatsDoc is Stats as the GET /v1/stats document.
func (p *Pool) StatsDoc() any { return p.Stats() }

// Stats returns a snapshot of the pool's aggregate counters, including
// the attached store's journal/result-file counters when persistent.
// The registry instruments are the system of record: the counters read
// back verbatim and the timing totals are the exact nanosecond sums of
// the queue-wait and run-time histograms, so /v1/stats and /metrics can
// never disagree.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Submitted = p.met.submitted.Value()
	s.Completed = p.met.completed.Value()
	s.Failed = p.met.failed.Value()
	s.Canceled = p.met.canceled.Value()
	s.Rejected = p.met.rejected.Value()
	s.CacheHits = p.met.cacheHits.Value()
	s.DiskHits = p.met.diskHits.Value()
	s.Coalesced = p.met.coalesced.Value()
	s.WideJobs = p.met.wideJobs.Value()
	s.Recovered = p.met.recovered.Value()
	s.Requeued = p.met.requeued.Value()
	s.Sweeps = p.met.sweeps.Value()
	s.SweepPoints = p.met.sweepPoints.Value()
	s.TotalQueue = time.Duration(p.met.queueWait.SumNanos())
	s.TotalRun = time.Duration(p.met.runTime.SumNanos())
	s.Build = obs.Build()
	s.Workers = p.opts.Workers
	s.QueueDepth = p.opts.QueueDepth
	s.QueueLen = len(p.pending)
	s.Running = p.running
	s.MaxShards = p.opts.MaxShards
	if p.cache != nil {
		s.CacheSize = p.cache.len()
	}
	if p.opts.Store != nil {
		s.Stats = p.opts.Store.Stats()
	}
	return s
}

// List returns status snapshots of every job the pool still tracks,
// newest first (job IDs are monotonic). A non-empty state filters; limit
// caps the result (<= 0: no cap).
func (p *Pool) List(state State, limit int) []Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]string, 0, len(p.jobs))
	for id, j := range p.jobs {
		if state != "" && j.state != state {
			continue
		}
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]Status, len(ids))
	for i, id := range ids {
		out[i] = p.statusLocked(p.jobs[id])
	}
	return out
}

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

// ResolveEngine mirrors runtime.Submit's engine selection for status
// reporting without executing anything: the context's explicit engine,
// else the scheduler's choice, else empty (such a job will fail with the
// scheduler's error when it runs). The fleet dispatcher uses it to
// journal and report an engine for jobs it forwards rather than runs.
func ResolveEngine(b *bundle.Bundle) string {
	if b.Context != nil && b.Context.Exec != nil && b.Context.Exec.Engine != "" {
		return b.Context.Exec.Engine
	}
	if engine, err := rt.SelectEngine(b); err == nil {
		return engine
	}
	return ""
}
