// Package store is the serving layer's persistence subsystem: an
// append-only JSONL journal of job lifecycle events plus content-addressed
// result files, giving jobs.Pool (and cmd/qmlserve via -data-dir) durable
// job history and crash-safe restarts.
//
// # Journal
//
// Every job state transition appends one JSON line to journal.jsonl:
// submitted (with the canonical bundle JSON, cache key and engine),
// started (with the shard grant), done (with the result's content
// address), failed (with the error), canceled, and forget (record
// eviction). Replay folds the lines into a per-job Record table with
// last-writer-wins merge semantics, so the same rules decode both a live
// journal and a compacted one. The submitted event carries the full
// bundle so a job that was queued or running at crash time can be
// reconstructed and requeued by the pool — accepted work is never
// silently dropped. Terminal events drop the bundle from the table (only
// status and the result address are needed afterwards).
//
// A truncated final line — the torn write of a crash mid-append — is
// tolerated: replay drops it and Open truncates the file back to the last
// complete line before appending resumes. A corrupt line that is *not*
// final fails Open, because silently skipping interior records would
// fabricate history.
//
// # Fsync policy
//
// The journal is written in two halves. Write puts one line in the file
// and the record table, in call order, and never fsyncs, renames or
// compacts: it is what a tier calls inside the critical section of a move,
// so that journal order is move order. It returns the sequence number to
// wait on. Commit blocks until every line up to that number is fsynced.
// Between the two stands one barrier: a syncer goroutine fsyncs, with the
// store's mutex released, whenever a written line wants it, whether or not
// anybody waits, and each fsync covers every line written before it began
// — so N concurrent committers cost one fsync instead of N (Stats.Syncs vs
// Stats.Events makes the batching visible). Append is Write then Commit.
//
// The policy (Options.Sync) says which lines want the barrier: every line
// under SyncAlways (default); submitted, terminal and forget lines under
// SyncTerminal (a lost started or assigned line merely re-runs or
// re-forwards the job); none under SyncNone, which leaves flushing to the
// OS, starts no syncer and makes Write return 0. Result files and
// compaction renames are always written via temp-file + rename, and
// fsynced unless SyncNone.
//
// What that buys, on a worker pool and on the fleet dispatcher alike —
// both journal through jobs.Table, which calls Write under the tier's
// mutex and Commit after releasing it:
//
//   - Order and visibility. A move's line is in the journal file, in move
//     order, before the move is readable: a process crash (SIGKILL) at any
//     instant loses no move any client could have seen.
//   - Acknowledgment. The 202 of a POST and the 200 of a DELETE return
//     only after the line they acknowledge met the policy.
//   - Everything else (started, assigned, a worker's or a watch's done or
//     failed) is fsynced within one barrier of being written, with nobody
//     waiting. Under SyncAlways a machine crash inside that window replays
//     the job one state earlier, and it re-runs to the identical result
//     under the same ID — the recovery the jobs package promises. No
//     reader and no mover ever queues behind an fsync.
//
// TestJournalContract holds both tiers to the three clauses, with the
// barrier in the test's hand.
//
// # Compaction
//
// The journal grows by one line per transition while the record table is
// bounded (the pool forgets evicted records). Once file lines exceed
// compactFactor× the live table (plus a floor), Commit rewrites the
// journal from the table — at most four events per record — through a
// temp file and atomic rename. Unreferenced result files beyond
// Options.MaxResults are garbage-collected at the same time, oldest
// first.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// SyncPolicy selects when the journal is fsynced.
type SyncPolicy int

const (
	// SyncAlways puts every event behind the fsync barrier (default).
	SyncAlways SyncPolicy = iota
	// SyncTerminal fsyncs every event but started and assigned.
	SyncTerminal
	// SyncNone never fsyncs; the OS flushes when it pleases.
	SyncNone
)

// ParseSyncPolicy maps the qmlserve -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "terminal":
		return SyncTerminal, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always|terminal|none)", s)
}

// Event types journaled by the pool and the fleet dispatcher.
const (
	EvSubmitted = "submitted"
	// EvAssigned records a fleet dispatcher handing the job to a worker
	// node (Worker) under the worker's own job ID (Remote). A re-forward
	// after a worker death appends a fresh assignment; last writer wins.
	EvAssigned = "assigned"
	EvStarted  = "started"
	EvDone     = "done"
	EvFailed   = "failed"
	EvCanceled = "canceled"
	EvForget   = "forget"
)

// Job states as recorded in the journal (mirrors jobs.State without the
// import cycle).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Event is one journal line.
type Event struct {
	T   string    `json:"t"`
	Job string    `json:"job"`
	At  time.Time `json:"at"`
	// Trace is the job's fleet-wide trace ID (set on submitted events;
	// replay and compaction keep it on the record so GET /v1/jobs/{id}
	// can answer with it after a restart).
	Trace string `json:"trace,omitempty"`
	// Submitted fields. Pin is the submitter's explicit parallelism
	// request (SubmitOptions.Shards), preserved so a requeued job keeps
	// its sizing after a crash. Profile records that the submitter asked
	// for the kernel-granular execution profile, so a requeued job re-runs
	// with profiling on and its status document regains the kernel table.
	Key     string          `json:"key,omitempty"`
	Engine  string          `json:"engine,omitempty"`
	Bundle  json.RawMessage `json:"bundle,omitempty"`
	Pin     int             `json:"pin,omitempty"`
	Profile bool            `json:"profile,omitempty"`
	// Assigned fields (fleet dispatcher): the worker node the job was
	// forwarded to and the job ID the worker answered with.
	Worker string `json:"worker,omitempty"`
	Remote string `json:"remote,omitempty"`
	// From/To bound the contiguous point range [From,To) covered by a
	// sweep-range assignment (fleet dispatcher; both zero on whole-job
	// assignments, which alone fold into Record.Worker/Remote). Range
	// assignments are history: a restarted dispatcher re-scatters a
	// non-terminal sweep from scratch. What a finished sweep needs after a
	// restart — where each range's results are — is Ranges.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Ranges (on a dispatched sweep's done event) is the final range
	// table, the way Results is a pool's sweep's.
	Ranges []Range `json:"ranges,omitempty"`
	// Started fields.
	Shards int `json:"shards,omitempty"`
	// Sweep fields: Points (on submitted events) is the parameter-grid
	// size of a sweep job — the whole grid journals as ONE record, not one
	// per point; Results (on done events) lists the per-point result
	// content addresses in point order.
	Points  int      `json:"points,omitempty"`
	Results []string `json:"results,omitempty"`
	// Terminal fields.
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	Result    string `json:"result,omitempty"` // content address of the result file
}

// Range is one slice [From,To) of a dispatched sweep's grid and the
// worker, and sub-sweep ID there, that hold its results.
type Range struct {
	From   int    `json:"from"`
	To     int    `json:"to"`
	Worker string `json:"worker"`
	Remote string `json:"remote"`
}

// Record is the folded journal state of one job.
type Record struct {
	Job       string
	Trace     string // fleet-wide trace ID
	Key       string
	Engine    string
	State     string
	Bundle    json.RawMessage // retained only while queued/running
	Pin       int             // submitter's explicit shard request
	Profile   bool            // submitter asked for the execution profile
	Worker    string          // fleet dispatcher: a plain job's assigned worker node
	Remote    string          // fleet dispatcher: job ID on that worker
	Ranges    []Range         // fleet dispatcher: a done sweep's final range table
	Shards    int
	Points    int      // sweep jobs: parameter-grid size (0 for plain jobs)
	Results   []string // sweep jobs: per-point result content addresses
	CacheHit  bool
	Coalesced bool
	Error     string
	ResultKey string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// Terminal reports whether the record's state is final.
func (r *Record) Terminal() bool {
	return r.State == StateDone || r.State == StateFailed || r.State == StateCanceled
}

// Stats are the persistence counters surfaced through /v1/stats.
type Stats struct {
	// Events counts journal lines appended since Open (not replayed ones).
	Events uint64 `json:"journal_events"`
	// Lines is the current journal file length in events.
	Lines int `json:"journal_lines"`
	// Syncs counts journal fsyncs issued on the append path since Open;
	// Syncs < Events shows committers sharing barriers.
	Syncs uint64 `json:"journal_syncs"`
	// Compactions counts journal rewrites since Open.
	Compactions uint64 `json:"journal_compactions"`
	// Errors counts append/compaction failures the pool chose to survive.
	Errors uint64 `json:"journal_errors"`
	// Records is the live record-table size.
	Records int `json:"journal_records"`
	// Results is the number of result files on disk.
	Results int `json:"disk_results"`
	// TruncatedTail is 1 if Open dropped a torn final journal line.
	TruncatedTail int `json:"journal_truncated_tail"`
}

// Options configure Open. The zero value is usable: SyncAlways, a 4×
// compaction factor, and 4096 retained result files.
type Options struct {
	Sync SyncPolicy
	// CompactFactor triggers compaction when journal lines exceed this
	// multiple of the record table (plus a fixed floor); values < 2 are
	// raised to 2.
	CompactFactor int
	// MaxResults bounds result files kept through compaction; files
	// referenced by a live record are always kept (default 4096; negative
	// retains everything).
	MaxResults int
	// Metrics is the registry the store's instruments register in (nil:
	// a private registry, so stores in tests never collide). The server
	// passes its own so /metrics carries store_* families.
	Metrics *obs.Registry
}

// storeMetrics are the registry-backed instruments behind Stats: the
// counters are the system of record (Stats() reads them back), the
// histograms exist only on /metrics.
type storeMetrics struct {
	events      *obs.Counter
	syncs       *obs.Counter
	compactions *obs.Counter
	errors      *obs.Counter
	appendLat   *obs.Histogram
	fsyncLat    *obs.Histogram
}

func newStoreMetrics(reg *obs.Registry, s *Store) *storeMetrics {
	m := &storeMetrics{
		events:      reg.Counter("store_journal_events_total", "Journal lines appended since Open (not replayed ones)."),
		syncs:       reg.Counter("store_journal_syncs_total", "Journal fsyncs issued on the append path since Open."),
		compactions: reg.Counter("store_journal_compactions_total", "Journal rewrites since Open."),
		errors:      reg.Counter("store_journal_errors_total", "Append/compaction/result-write failures the caller chose to survive."),
		appendLat:   reg.Histogram("store_journal_append_seconds", "Journal write latency: one line into the file and the record table, before any fsync.", nil),
		fsyncLat:    reg.Histogram("store_journal_fsync_seconds", "Journal fsync latency.", nil),
	}
	reg.GaugeFunc("store_journal_lines", "Current journal file length in events.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.lines)
	})
	reg.GaugeFunc("store_journal_records", "Live record-table size.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.records))
	})
	return m
}

func (o Options) withDefaults() Options {
	if o.CompactFactor < 2 {
		if o.CompactFactor != 0 {
			o.CompactFactor = 2
		} else {
			o.CompactFactor = 4
		}
	}
	if o.MaxResults == 0 {
		o.MaxResults = 4096
	}
	return o
}

// compactFloor keeps tiny journals from compacting on every append.
const compactFloor = 64

// testSyncHook, when non-nil, runs in the syncer with the mutex released,
// before each fsync — a test seam that holds the barrier, so that batching
// is observable on filesystems whose fsync returns instantly and a test
// can look around while committers wait.
var testSyncHook func()

// fsyncStallThreshold is the journal fsync latency beyond which a
// fsync_stall event lands in the flight recorder: slow syncs are the
// usual culprit when submission latency spikes, and the ring keeps the
// recent ones visible at /debug/events without scraping histograms.
const fsyncStallThreshold = 50 * time.Millisecond

// observeFsync records the fsync latency in the histogram and, past the
// stall threshold, in the process flight recorder.
func (m *storeMetrics) observeFsync(d time.Duration) {
	m.fsyncLat.Observe(d)
	if d >= fsyncStallThreshold {
		obs.RecordDur(obs.FlightFsyncStall, "", "journal fsync", d)
	}
}

// Store is a journal + result-file directory owned by one process. All
// methods are safe for concurrent use (a tier writes journal lines under
// its own lock but writes result files from worker goroutines).
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // the barrier: wakes the syncer, committers and compaction
	f       *os.File   // journal, opened O_APPEND
	lines   int
	records map[string]*Record
	stats   Stats
	met     *storeMetrics

	// The fsync barrier. written numbers the lines written since Open and
	// wanted is the newest of them the policy wants fsynced; the syncer
	// runs while wanted is ahead of both synced, the newest line known
	// durable, and failed, the newest line a failed fsync (failErr)
	// covered — so a failure is not retried until the next line asks.
	written, wanted uint64
	synced, failed  uint64
	failErr         error
	syncing         bool // the syncer is in its fsync, mutex released
	closed          bool
	syncer          sync.WaitGroup
}

// Open creates dir (and its results/ subdirectory) if needed, replays the
// journal into the record table, truncates a torn final line, and leaves
// the journal open for appending.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, records: map[string]*Record{}}
	s.cond = sync.NewCond(&s.mu)
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newStoreMetrics(reg, s)
	if err := s.replay(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	if opts.Sync != SyncNone {
		s.syncer.Add(1)
		go s.syncLoop()
	}
	return s, nil
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, "journal.jsonl") }

// replay folds journal.jsonl into the record table. A torn final line is
// dropped and the file truncated to the last complete line; a corrupt
// interior line is a hard error.
func (s *Store) replay() error {
	raw, err := os.ReadFile(s.journalPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	good := 0 // byte offset past the last successfully applied line
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		lineEnd := good + len(line)
		if lineEnd < len(raw) { // the scanner consumed a trailing '\n'
			lineEnd++
		}
		if len(bytes.TrimSpace(line)) == 0 {
			good = lineEnd
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil || ev.T == "" || ev.Job == "" {
			// Only the final line may be torn (a crash mid-append writes a
			// partial tail, never garbage with valid records after it).
			if lineEnd < len(raw) && len(bytes.TrimSpace(raw[lineEnd:])) > 0 {
				return fmt.Errorf("store: corrupt journal line at byte %d: %s", good, truncateForErr(line))
			}
			s.stats.TruncatedTail = 1
			if terr := os.Truncate(s.journalPath(), int64(good)); terr != nil {
				return fmt.Errorf("store: truncating torn journal tail: %w", terr)
			}
			return nil
		}
		s.apply(ev)
		s.lines++
		good = lineEnd
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// A file not ending in '\n' had its tail handled above; if the last
	// line parsed but lacked the newline, re-terminate it so the next
	// append starts a fresh line.
	if len(raw) > 0 && raw[len(raw)-1] != '\n' && good == len(raw) {
		f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		_, werr := f.WriteString("\n")
		cerr := f.Close()
		if werr != nil || cerr != nil {
			return fmt.Errorf("store: re-terminating journal: %v/%v", werr, cerr)
		}
	}
	return nil
}

func truncateForErr(line []byte) string {
	const max = 120
	if len(line) > max {
		return string(line[:max]) + "…"
	}
	return string(line)
}

// apply merges one event into the record table (last writer wins).
func (s *Store) apply(ev Event) {
	if ev.T == EvForget {
		delete(s.records, ev.Job)
		return
	}
	r := s.records[ev.Job]
	if r == nil {
		r = &Record{Job: ev.Job, State: StateQueued}
		s.records[ev.Job] = r
	}
	if ev.Trace != "" {
		r.Trace = ev.Trace
	}
	switch ev.T {
	case EvSubmitted:
		r.State = StateQueued
		r.Key = ev.Key
		r.Engine = ev.Engine
		r.Bundle = ev.Bundle
		r.Pin = ev.Pin
		r.Profile = ev.Profile
		r.Points = ev.Points
		r.Submitted = ev.At
	case EvAssigned:
		if ev.To == 0 { // a whole job, not one range of a sweep
			r.Worker = ev.Worker
			r.Remote = ev.Remote
		}
	case EvStarted:
		r.State = StateRunning
		r.Started = ev.At
		r.Shards = ev.Shards
	case EvDone, EvFailed, EvCanceled:
		switch ev.T {
		case EvDone:
			r.State = StateDone
			r.ResultKey = ev.Result
			r.Results = ev.Results
			r.Ranges = ev.Ranges
		case EvFailed:
			r.State = StateFailed
			r.Error = ev.Error
		case EvCanceled:
			r.State = StateCanceled
		}
		if ev.Engine != "" {
			r.Engine = ev.Engine
		}
		r.CacheHit = ev.CacheHit
		r.Coalesced = ev.Coalesced
		r.Finished = ev.At
		r.Bundle = nil // only status + result address matter now
	}
}

// errGone is what writing to, or waiting on, a store without a journal
// handle answers.
var errGone = errors.New("store: journal closed, or lost during a failed compaction")

// Append journals one event and returns once it met the fsync policy:
// Write, then Commit.
func (s *Store) Append(ev Event) error {
	seq, err := s.Write(ev)
	if err != nil {
		return err
	}
	return s.Commit(seq)
}

// Write puts one event in the journal file and the record table, in call
// order, and returns without fsyncing, renaming or compacting anything —
// the one store mutator a tier calls inside its critical section. The
// sequence number it returns is what Commit waits on; it is 0 when the
// policy asks no fsync of this event.
func (s *Store) Write(ev Event) (uint64, error) {
	start := time.Now()
	raw, err := json.Marshal(ev)
	if err != nil {
		s.met.errors.Inc()
		return 0, fmt.Errorf("store: %w", err)
	}
	raw = append(raw, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		s.met.errors.Inc()
		return 0, errGone
	}
	if _, err := s.f.Write(raw); err != nil {
		s.met.errors.Inc()
		return 0, fmt.Errorf("store: %w", err)
	}
	s.apply(ev)
	s.lines++
	s.written++
	s.met.events.Inc()
	s.met.appendLat.Observe(time.Since(start))
	if !s.syncEvent(ev.T) {
		return 0, nil
	}
	s.wanted = s.written
	s.cond.Broadcast()
	return s.written, nil
}

// Commit blocks until every line up to seq is fsynced — at once for
// seq 0 — and then runs the compaction that has come due, which is why
// it is called with no tier mutex held. It fails when the fsync that
// covered seq failed, or the store was closed first.
func (s *Store) Commit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.synced < seq {
		if s.failed >= seq {
			return s.failErr
		}
		if s.closed {
			return errGone
		}
		s.cond.Wait()
	}
	if s.f != nil && s.lines > s.opts.CompactFactor*len(s.records)+compactFloor {
		if err := s.compact(); err != nil {
			s.met.errors.Inc()
			return err
		}
	}
	return nil
}

// syncLoop is the syncer, the append path's one fsync site: whenever a
// written line wants it — whether or not a committer waits — it fsyncs
// once, with the mutex released, for every line written before the fsync
// began, so concurrent committers share a barrier. A failed fsync fails
// the committers it covered, counts once, and is retried when the next
// line asks.
func (s *Store) syncLoop() {
	defer s.syncer.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && s.wanted <= max(s.synced, s.failed) {
			s.cond.Wait()
		}
		if s.closed {
			return // Close flushes what is left
		}
		if testSyncHook != nil {
			s.mu.Unlock()
			testSyncHook()
			s.mu.Lock()
			if s.closed || s.wanted <= max(s.synced, s.failed) {
				continue // Close or a compaction did the work meanwhile
			}
		}
		if s.f == nil {
			s.failed, s.failErr = s.written, errGone
			s.cond.Broadcast()
			continue
		}
		// Every line already written is covered by the fsync below.
		s.syncing = true
		f, target := s.f, s.written
		s.mu.Unlock()
		syncStart := time.Now()
		err := f.Sync()
		s.met.observeFsync(time.Since(syncStart))
		s.mu.Lock()
		s.syncing = false
		s.met.syncs.Inc()
		if err != nil {
			s.failed, s.failErr = target, fmt.Errorf("store: %w", err)
			s.met.errors.Inc()
		} else {
			s.synced = target
		}
		s.cond.Broadcast()
	}
}

func (s *Store) syncEvent(t string) bool {
	switch s.opts.Sync {
	case SyncAlways:
		return true
	case SyncTerminal:
		return t != EvStarted && t != EvAssigned
	}
	return false
}

// Compact rewrites the journal from the record table (at most four
// events per record) through a temp file and atomic rename, then
// garbage-collects unreferenced result files beyond Options.MaxResults.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compact()
}

func (s *Store) compact() error {
	// The syncer may be fsyncing the current handle with the mutex
	// released; wait it out so the rename/reopen below never races an
	// in-flight sync on the retiring file.
	for s.syncing {
		s.cond.Wait()
	}
	tmp, err := os.CreateTemp(s.dir, "journal-*.tmp")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	jobs := make([]string, 0, len(s.records))
	for id := range s.records {
		jobs = append(jobs, id)
	}
	sort.Strings(jobs)
	written := 0
	for _, id := range jobs {
		for _, ev := range recordEvents(s.records[id]) {
			raw, err := json.Marshal(ev)
			if err != nil {
				tmp.Close()
				return fmt.Errorf("store: compact: %w", err)
			}
			if _, err := w.Write(append(raw, '\n')); err != nil {
				tmp.Close()
				return fmt.Errorf("store: compact: %w", err)
			}
			written++
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if s.opts.Sync != SyncNone {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// Swap order matters for failure atomicity: rename over the live
	// journal first (the old handle keeps working until then, so a
	// rename failure leaves the store fully functional on the old file),
	// open the new inode, and only then retire the old handle. If the
	// reopen fails the old handle points at the unlinked inode — appends
	// there would vanish silently — so the store goes dead loudly
	// instead (every later Append errors) rather than lying.
	if err := os.Rename(tmp.Name(), s.journalPath()); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if s.opts.Sync != SyncNone {
		syncDir(s.dir)
	}
	f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.f.Close()
		s.f = nil
		return fmt.Errorf("store: compact: reopening journal: %w", err)
	}
	s.f.Close()
	s.f = f
	s.lines = written
	s.met.compactions.Inc()
	// The compacted file was fully written and (unless SyncNone) fsynced
	// before the rename, so every line written so far is now durable;
	// release the committers waiting on them.
	s.synced = s.written
	s.cond.Broadcast()
	s.gcResults()
	return nil
}

// recordEvents renders a record back into the minimal event sequence that
// replays to the same state.
func recordEvents(r *Record) []Event {
	evs := []Event{{
		T: EvSubmitted, Job: r.Job, At: r.Submitted, Trace: r.Trace,
		Key: r.Key, Engine: r.Engine, Bundle: r.Bundle, Pin: r.Pin,
		Profile: r.Profile, Points: r.Points,
	}}
	if r.Worker != "" || r.Remote != "" {
		evs = append(evs, Event{T: EvAssigned, Job: r.Job, Worker: r.Worker, Remote: r.Remote})
	}
	if !r.Started.IsZero() {
		evs = append(evs, Event{T: EvStarted, Job: r.Job, At: r.Started, Shards: r.Shards})
	}
	switch r.State {
	case StateDone:
		evs = append(evs, Event{
			T: EvDone, Job: r.Job, At: r.Finished, Engine: r.Engine,
			CacheHit: r.CacheHit, Coalesced: r.Coalesced, Result: r.ResultKey,
			Results: r.Results, Ranges: r.Ranges,
		})
	case StateFailed:
		evs = append(evs, Event{
			T: EvFailed, Job: r.Job, At: r.Finished, Engine: r.Engine,
			Coalesced: r.Coalesced, Error: r.Error,
		})
	case StateCanceled:
		evs = append(evs, Event{T: EvCanceled, Job: r.Job, At: r.Finished})
	}
	return evs
}

// Records returns the replayed job records sorted by job ID.
func (s *Store) Records() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, 0, len(s.records))
	for _, r := range s.records {
		cp := *r
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Stats snapshots the persistence counters. The registry instruments
// are the system of record; this keeps /v1/stats' JSON shape while
// /metrics reads the same instruments directly.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.Lines = s.lines
	st.Records = len(s.records)
	s.mu.Unlock()
	st.Events = s.met.events.Value()
	st.Syncs = s.met.syncs.Value()
	st.Compactions = s.met.compactions.Value()
	st.Errors = s.met.errors.Value()
	// Listing results/ — milliseconds for a full directory — needs no
	// lock and must not hold one: every journal write queues behind s.mu.
	st.Results = len(s.resultDirEntries())
	return st
}

// Sync flushes the journal to disk regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errGone
	}
	//lint:ignore lockblock s.mu is the journal handle's own lock; an explicit Sync must exclude appends and compaction swapping the handle
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close fsyncs (unless SyncNone) and closes the journal, releases the
// committers still waiting — with the verdict of that last fsync — and
// returns once the syncer has exited. Writes after Close fail.
func (s *Store) Close() error {
	err := s.close()
	s.syncer.Wait()
	return err
}

func (s *Store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Let an in-flight fsync finish before the handle goes away under it.
	for s.syncing {
		s.cond.Wait()
	}
	s.closed = true
	defer s.cond.Broadcast()
	if s.f == nil {
		return nil
	}
	var err error
	if s.opts.Sync != SyncNone {
		//lint:ignore lockblock s.mu is the journal handle's own lock; Close tears the handle down, nothing can contend usefully past this point
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	if err != nil {
		s.failed, s.failErr = s.written, fmt.Errorf("store: %w", err)
		return s.failErr
	}
	s.synced = s.written
	return nil
}

// syncDir best-effort fsyncs a directory after a rename.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
