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
// run-time metrics aggregate into Stats.
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
	// transition is written to the store's journal, results persist as
	// content-addressed files, and NewPool replays the journal —
	// terminal jobs stay queryable across restarts, jobs that were
	// queued or running at crash time are requeued, and the result
	// cache rehydrates from disk. The pool does not close the store;
	// the owner does, after Close returns. Journal append failures are
	// counted (Stats.Errors) but never fail the job operation — the
	// service degrades to in-memory rather than rejecting work.
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

// job is a Pool's record: the shared Record plus what only a pool holds.
// Fields are guarded by Pool.mu.
type job struct {
	Record
	bundle  *bundle.Bundle // dropped when terminal
	pin     int            // submitter's explicit parallelism request (0 = scheduler)
	waiters []*job         // identical submissions coalesced onto this running job
	primary *job           // the running job this one is attached to (waiters only)
	resKey  string         // content address of the on-disk result (recovered jobs)
	// sweep is non-nil for sweep jobs (SubmitSweep): per-point progress,
	// result keys and results. Such a job occupies one queue slot and one
	// journal record but fans out per point when it runs.
	sweep *sweepState
	res   *result.Result
}

// Snapshot adds a sweep's progress to the common status header.
func (j *job) Snapshot(s *Status) {
	if j.sweep != nil {
		s.PointsDone = j.sweep.completed
	}
}

// Pool is a concurrent job scheduler over runtime.Submit.
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
	stats    Stats
}

// NewPool starts a pool with opts.Workers executor goroutines. Call Close
// to drain and stop them. When Options.Store is set, the store's journal
// is replayed first: terminal jobs are re-exposed for Status/Result
// lookups, jobs that were queued or running at crash time are requeued
// (same job IDs, so pre-crash handles keep resolving), and the result
// cache rehydrates from the on-disk result files.
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

// recoverLocked replays the attached store's record table into the pool:
// terminal records become queryable job records whose results load
// lazily from disk, queued/running records are requeued (re-running a
// requeued job is safe — execution is deterministic in the cache key, so
// its counts are identical to what the lost run would have produced),
// and the LRU cache warms from the newest on-disk results. Callers hold
// p.mu; the workers have not started yet.
func (p *Pool) recoverLocked() {
	for _, rec := range p.opts.Store.Records() {
		j := &job{Record: Recovered(rec), pin: rec.Pin, resKey: rec.ResultKey}
		p.met.recovered.Inc()
		// Sweep records carry the grid size (and, when done, the per-point
		// result addresses); reconstruct the sweep state so Status reports
		// the job as a sweep and SweepResult can lazy-load from disk.
		if j.Points = max(rec.Points, len(rec.Results)); j.Points > 0 {
			j.sweep = &sweepState{keys: rec.Results, completed: len(rec.Results)}
		}
		p.Restore(j)
		if j.State.Terminal() {
			continue
		}
		// Queued or running at crash time: requeue.
		b, err := bundle.FromJSON(rec.Bundle, qop.ValidateOptions{})
		if err != nil {
			// The journaled bundle no longer validates (schema drift,
			// torn result of an older bug): surface it as a failed
			// job instead of dropping the record on the floor.
			p.met.failed.Inc()
			p.finishLocked(j, StateFailed, Detail{Err: fmt.Errorf("jobs: recovery: %w", err)})
			p.log.Warn("job failed at recovery", "job", j.ID, "trace", j.Trace, "err", j.Err)
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
// with ErrQueueFull.
func (p *Pool) Submit(b *bundle.Bundle, o SubmitOptions) (Status, error) {
	if b == nil {
		return Status{}, fmt.Errorf("jobs: nil bundle")
	}
	j, submitted, err := p.prepare(b, o, 0)
	if err != nil {
		return Status{}, err
	}
	key := j.Key

	// What a durable pool reads or writes on disk for a born-terminal job,
	// it does here, with the pool unlocked. A result absent from the memory
	// LRU may live on disk (from a previous process life): the file is read
	// and decoded, and only a memory miss pays for it. A result in the LRU
	// whose file no earlier process life persisted has it written now, so
	// that the done line about to reference it never points at a missing
	// file.
	var onDisk *result.Result
	if p.cache != nil && p.opts.Store != nil {
		p.mu.Lock()
		closed, inMem := p.closed, p.cache.has(key)
		p.mu.Unlock()
		switch {
		case closed:
		case !inMem:
			if res, ok, err := p.opts.Store.GetResult(key); err == nil && ok {
				onDisk = res
			}
		case !p.opts.Store.HasResult(key):
			p.mu.Lock()
			res, ok := p.cache.get(key)
			p.mu.Unlock()
			if ok {
				//lint:ignore journalerr best-effort backfill; failures count in store_journal_errors_total and the result stays served from cache
				_ = p.opts.Store.PutResult(key, res)
			}
		}
	}

	p.mu.Lock()
	st, err := p.admitLocked(j, submitted, onDisk)
	p.mu.Unlock()
	if err != nil {
		return Status{}, err
	}
	p.Commit(j)
	return st, nil
}

// admitLocked enters a prepared plain job: born done from the result
// cache (or from onDisk, what Submit found on disk for it), coalesced onto
// a running twin, or queued. Callers hold p.mu.
func (p *Pool) admitLocked(j *job, submitted Detail, onDisk *result.Result) (Status, error) {
	key, now := j.Key, submitted.At
	if p.closed {
		return Status{}, ErrClosed
	}
	if p.cache != nil {
		res, hit := p.cache.get(key)
		if !hit && onDisk != nil {
			res, hit = onDisk, true
			p.cache.put(key, onDisk)
			p.met.diskHits.Inc()
		}
		if hit {
			// Born terminal: a submitted event without the bundle (nothing
			// will ever requeue it), then a done event referencing the
			// content-addressed result.
			j.res, j.CacheHit, j.ProfileDoc = res, true, profileRaw(res)
			p.Add(j, Detail{At: now})
			p.finishLocked(j, StateDone, Detail{At: now, Note: "cache hit", Ev: store.Event{Result: key}})
			p.met.submitted.Inc()
			p.met.cacheHits.Inc()
			p.met.completed.Inc()
			obs.Record(obs.FlightJobDone, j.ID, "cache hit")
			p.log.Info("job done", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "cache_hit", true)
			return p.Snapshot(j), nil
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
		submitted.Note = "coalesced onto " + primary.ID
		p.Add(j, submitted)
		p.met.submitted.Inc()
		p.met.coalesced.Inc()
		obs.Record(obs.FlightJobQueued, j.ID, submitted.Note)
		p.log.Info("job coalesced", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "primary", primary.ID)
		return p.Snapshot(j), nil
	}
	if len(p.pending) >= p.opts.QueueDepth {
		p.met.rejected.Inc()
		return Status{}, ErrQueueFull
	}
	p.Add(j, submitted)
	p.pending = append(p.pending, j)
	p.met.submitted.Inc()
	obs.Record(obs.FlightJobQueued, j.ID, "")
	p.log.Info("job queued", "job", j.ID, "trace", j.Trace, "engine", j.Engine)
	p.cond.Signal()
	return p.Snapshot(j), nil
}

// prepare builds, off-lock, the record of a submission (points > 0: a
// sweep's) and the detail of its submitted event. The content address
// feeds the result cache and in-flight coalescing — a sweep template's
// never collides with a per-point key, the sweep block being part of the
// context — and profiled submissions key separately so the profile's
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
	return &job{
		Record: Record{Trace: obs.EnsureTraceID(o.TraceID), Key: profiledKey(key, o.Profile), Engine: ResolveEngine(b), Profile: o.Profile, Points: points},
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

func (p *Pool) runJob(j *job) {
	// j.sweep is assigned before the job ever enters the pending queue
	// (under p.mu at submit or recovery), and the worker dequeued j under
	// the same mutex, so this unlocked read is ordered.
	if j.sweep != nil {
		p.runSweepJob(j)
		return
	}
	p.mu.Lock()
	if j.State != StateQueued { // canceled while queued
		p.mu.Unlock()
		return
	}
	// Re-check the cache at dequeue time: an identical job may have
	// completed while this one waited in the queue.
	if p.cache != nil {
		if res, ok := p.cache.get(j.Key); ok {
			if p.opts.Store != nil && !p.opts.Store.HasResult(j.Key) {
				// Backfill the content-addressed result file (an earlier
				// process life never persisted it) off-lock: its fsync must
				// not stall submitters. Cancel can take the job while the
				// lock is down, so re-check before going terminal; the
				// orphaned result file is harmless (content-addressed, and
				// the next identical job reuses it).
				p.mu.Unlock()
				//lint:ignore journalerr best-effort backfill; failures count in store_journal_errors_total and the result stays served from cache
				_ = p.opts.Store.PutResult(j.Key, res)
				p.mu.Lock()
				if j.State != StateQueued {
					p.mu.Unlock()
					return
				}
			}
			j.res, j.CacheHit, j.ProfileDoc = res, true, profileRaw(res)
			now := time.Now()
			p.finishLocked(j, StateDone, Detail{At: now, Dur: now.Sub(j.Submitted), Note: "cache hit at dequeue", Ev: store.Event{Result: j.Key}})
			p.met.queueWait.Observe(now.Sub(j.Submitted))
			p.met.cacheHits.Inc()
			p.met.completed.Inc()
			obs.Record(obs.FlightJobDone, j.ID, "cache hit at dequeue")
			p.log.Info("job done", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "cache_hit", true)
			p.mu.Unlock()
			return
		}
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
	started, note := time.Now(), fmt.Sprintf("shards=%d", granted)
	_ = p.Transition(j, StateRunning, Detail{At: started, Dur: started.Sub(j.Submitted), Note: note})
	p.met.queueWait.Observe(started.Sub(j.Submitted))
	obs.Record(obs.FlightJobRunning, j.ID, note)
	p.log.Info("job started", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "shards", granted)
	// Per-stage timings from the engine become spans on this job; the
	// callback runs on the worker goroutine with p.mu released.
	runOpts := rt.Options{Shards: granted, Profile: j.Profile, Stages: func(stage string, d time.Duration) {
		p.mu.Lock()
		j.Span(stage, d, "")
		p.mu.Unlock()
	}}
	p.mu.Unlock()

	res, err := rt.Submit(j.bundle, runOpts)

	// Persist the result before journaling the terminal transition, so a
	// "done" record on disk never references a missing result file. A
	// crash in between replays as "running" and simply re-runs the job —
	// deterministic in the cache key, so the rerun's counts are
	// identical.
	persisted := false
	if err == nil && res != nil && p.opts.Store != nil {
		persisted = p.opts.Store.PutResult(j.Key, res) == nil
	}

	p.mu.Lock()
	finished := time.Now()
	run := finished.Sub(started)
	p.running--
	if p.inflight[j.Key] == j {
		delete(p.inflight, j.Key)
	}
	p.met.runTime.Observe(run)
	if persisted {
		j.Span("persisted", 0, "")
	}
	if err != nil {
		p.finishLocked(j, StateFailed, Detail{At: finished, Dur: run, Err: err})
		p.met.failed.Inc()
		obs.Record(obs.FlightJobFailed, j.ID, err.Error())
		p.log.Warn("job failed", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "err", err)
	} else {
		j.res, j.ProfileDoc = res, profileRaw(res)
		if res != nil {
			j.Engine = res.Engine
		}
		if p.cache != nil {
			p.cache.put(j.Key, res)
		}
		p.finishLocked(j, StateDone, Detail{At: finished, Dur: run, Ev: store.Event{Result: j.Key}})
		p.met.completed.Inc()
		obs.RecordDur(obs.FlightJobDone, j.ID, "", run)
		p.log.Info("job done", "job", j.ID, "trace", j.Trace, "engine", j.Engine, "run_ms", run.Milliseconds())
	}
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
		if w.State != StateQueued { // canceled while attached
			continue
		}
		w.primary = nil
		w.Coalesced = true
		w.Engine = j.Engine
		with := Detail{At: finished, Note: "with primary " + j.ID, Err: err}
		if err != nil {
			p.finishLocked(w, StateFailed, with)
			p.met.failed.Inc()
			p.log.Warn("job failed", "job", w.ID, "trace", w.Trace, "engine", w.Engine, "coalesced", true, "err", err)
		} else {
			w.res, w.ProfileDoc = copies[i], j.ProfileDoc
			with.Ev.Result = w.Key
			p.finishLocked(w, StateDone, with)
			p.met.completed.Inc()
			p.log.Info("job done", "job", w.ID, "trace", w.Trace, "engine", w.Engine, "coalesced", true)
		}
		p.met.queueWait.Observe(finished.Sub(w.Submitted))
	}
	p.mu.Unlock()
}

// Result returns the job's result once it is Done. A queued or running
// job returns ErrNotFinished; a failed job returns its execution error; a
// canceled job returns ErrCanceled; a sweep returns ErrIsSweep. Repeated calls for the same job ID
// share one Result (the cache keeps private copies, so mutating it cannot
// poison other jobs) — concurrent readers of one job must coordinate
// before calling methods that reorder Entries, such as Sort.
func (p *Pool) Result(id string) (*result.Result, error) {
	p.mu.Lock()
	j, err := p.Get(id)
	if err == nil && j.sweep != nil {
		err = fmt.Errorf("%w: its results are at GET /v1/sweeps/%s (SweepResult)", ErrIsSweep, id)
	}
	if err == nil {
		err = NotDoneError(id, j.State, j.Err)
	}
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// A job recovered from the journal holds only the content address of
	// its result; the first access loads the file, with the pool unlocked,
	// and the first load to come back is the one every caller shares.
	if j.res == nil && j.resKey != "" && p.opts.Store != nil {
		key := j.resKey
		p.mu.Unlock()
		res, ok, err := p.opts.Store.GetResult(key)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("jobs: result file for %q (%s) is gone", id, key)
		}
		p.mu.Lock()
		if j.res == nil {
			j.res = res
			j.attachProfile(profileRaw(res))
		}
	}
	res := j.res
	p.mu.Unlock()
	return res, nil
}

// attachProfile attaches the profile of a recovered job, materialized with
// its lazily loaded results, as a change its watchers see.
func (j *job) attachProfile(doc json.RawMessage) {
	if j.ProfileDoc = doc; doc != nil {
		j.Touch()
	}
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

// StatsDoc is Stats as the GET /v1/stats document.
func (p *Pool) StatsDoc() any { return p.Stats() }

// Stats returns a snapshot of the pool's aggregate counters, including
// the attached store's journal/result-file counters when persistent.
// The registry instruments are the system of record: the counters read
// back verbatim and the timing totals are the exact nanosecond sums of
// the queue-wait and run-time histograms, so /v1/stats and /metrics can
// never disagree.
func (p *Pool) Stats() Stats {
	// Read before taking p.mu: the store lists its result directory.
	var journal store.Stats
	if p.opts.Store != nil {
		journal = p.opts.Store.Stats()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Stats = journal
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
	return s
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
