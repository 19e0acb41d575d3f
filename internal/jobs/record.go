package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/jobs/store"
	"repro/internal/obs"
)

// Record is the part of a job record both tiers keep: identity, lifecycle
// state with its timestamps and span log, the verdicts a status document
// shows, the revision waiters park on and the channel that closes when the
// job turns terminal. A Pool's job and a dispatcher's forwarded job embed
// it and add only what is theirs. Fields are guarded by the tier's mutex;
// State, the timestamps and Err change only through Table.Transition.
type Record struct {
	ID     string
	Trace  string // fleet-wide trace ID
	Key    string // content address of the submission
	Engine string
	State  State
	// CacheHit and Coalesced report a job that never executed; Shards is
	// the parallelism granted when it started running.
	CacheHit  bool
	Coalesced bool
	Shards    int
	// Points is a sweep's parameter-grid size; 0 for a plain job.
	Points int
	// Profile records that the submitter asked for the kernel-granular
	// profile, ProfileDoc the table once an execution produced one.
	Profile    bool
	ProfileDoc json.RawMessage
	// Err is why the job failed.
	Err       error
	Submitted time.Time
	Started   time.Time // zero until the job leaves the queue
	Finished  time.Time // zero until terminal
	Spans     []obs.Span

	rev  Revision
	done chan struct{}
	// seq is what Store.Commit waits on for the newest of this record's
	// journal lines that the fsync policy covers (see Table.Commit).
	seq uint64
}

// Rec returns the record itself, so that a type embedding Record is a Job.
func (r *Record) Rec() *Record { return r }

// Span appends one span to the lifecycle log. The span log alone is not a
// revision: callers that changed something a watcher should see Touch too.
func (r *Record) Span(stage string, d time.Duration, note string) {
	r.Spans = append(r.Spans, obs.NewSpan(stage, d, note))
}

// Touch advances the record's revision for a change that is not a state
// move — sweep progress, an attached profile, a new assignment — and
// releases the watchers parked on it.
func (r *Record) Touch() { r.rev.Bump() }

// Done is closed when the job turns terminal.
func (r *Record) Done() <-chan struct{} { return r.done }

// Recovered is the shared part of a record replayed from the journal: a
// terminal one as it ended, anything else queued again under its own ID.
func Recovered(rec *store.Record) Record {
	r := Record{
		ID: rec.Job, Trace: rec.Trace, Key: rec.Key, Engine: rec.Engine, State: StateQueued,
		Points: rec.Points, Profile: rec.Profile, Submitted: rec.Submitted,
	}
	if rec.Terminal() {
		r.State = State(rec.State)
		r.CacheHit, r.Coalesced, r.Shards = rec.CacheHit, rec.Coalesced, rec.Shards
		r.Started, r.Finished = rec.Started, rec.Finished
		if r.State == StateFailed {
			r.Err = errors.New(rec.Error)
		}
	}
	return r
}

// Job is a tier's record type: it embeds Record (which supplies Rec) and
// adds to a snapshot what only that tier knows.
type Job interface {
	Rec() *Record
	// Snapshot completes s, whose common header Table.Snapshot has filled
	// in. Callers hold the tier's mutex.
	Snapshot(s *Status)
}

// Detail is what one lifecycle move carries that the record does not
// already hold.
type Detail struct {
	// At is when the move happened (zero: now).
	At time.Time
	// Dur and Note are the duration and note of the move's span.
	Dur  time.Duration
	Note string
	// Err is why, on a move to failed.
	Err error
	// Ev holds the journal-event fields only the caller knows: Bundle, Pin
	// and Profile on a submission; Result, Results or Ranges on done.
	Ev store.Event
}

// move is one edge of the lifecycle.
type move struct{ from, to State }

// moves is the lifecycle: every legal move, the stage of the span it logs
// and the journal event it emits. See Table.Transition.
var moves = map[move]struct{ stage, event string }{
	{"", StateQueued}:             {"queued", store.EvSubmitted},
	{StateQueued, StateRunning}:   {"started", store.EvStarted},
	{StateQueued, StateDone}:      {"done", store.EvDone},
	{StateQueued, StateFailed}:    {"failed", store.EvFailed},
	{StateQueued, StateCanceled}:  {"canceled", store.EvCanceled},
	{StateRunning, StateDone}:     {"done", store.EvDone},
	{StateRunning, StateFailed}:   {"failed", store.EvFailed},
	{StateRunning, StateCanceled}: {"canceled", store.EvCanceled},
	{StateRunning, StateQueued}:   {"detached", ""},
}

// Table is the job table of one tier: it allocates the monotonic job IDs,
// looks records up, answers Status, List, Wait and WaitTimeout, bounds how
// many terminal records are retained, and owns the one function that moves
// a record through its lifecycle — and, with it, writes the journal. It is
// guarded by the tier's mutex: the four read calls and Commit take it,
// everything else is called with it held.
type Table[J Job] struct {
	mu   *sync.Mutex
	max  int
	st   *store.Store // nil: nothing is journaled
	jobs map[string]J
	// terminal holds finished job IDs in completion order for retention.
	terminal []string
	nextID   uint64
}

// NewTable makes the table of a tier whose state mu guards. maxRecords
// bounds the terminal records retained (negative: all). st is the journal
// the table's moves are written to; nil journals nothing.
func NewTable[J Job](mu *sync.Mutex, maxRecords int, st *store.Store) *Table[J] {
	return &Table[J]{mu: mu, max: maxRecords, st: st, jobs: map[string]J{}}
}

// Journal writes one event of j's to the journal: the line is in the file,
// after every line written before it, when Journal returns, and nothing is
// fsynced. Transition calls it for every move; a tier calls it for the one
// event that is not a move, a dispatcher's assignment. The line's job and
// trace IDs are the record's. Callers hold the mutex — which is what makes journal
// order move order — and an acknowledgment Commits after releasing it.
func (t *Table[J]) Journal(j J, ev store.Event) {
	if t.st == nil {
		return
	}
	r := j.Rec()
	ev.Job, ev.Trace = r.ID, r.Trace
	//lint:ignore journalerr persistence failures count in store_journal_errors_total; the tier keeps serving from memory rather than failing accepted work
	seq, _ := t.st.Write(ev)
	r.seq = max(r.seq, seq)
}

// Commit returns once the newest journal line of j met the fsync policy,
// and runs the journal compaction that has come due. It is how a tier
// acknowledges a move — the 202 of a POST, the 200 of a DELETE — and is
// called without the mutex: no reader and no other mover waits behind the
// fsync. Moves nobody acknowledges need no Commit; the store fsyncs their
// lines within one barrier of their being written.
func (t *Table[J]) Commit(j J) {
	if t.st == nil {
		return
	}
	t.mu.Lock()
	seq := j.Rec().seq
	t.mu.Unlock()
	//lint:ignore journalerr persistence failures count in store_journal_errors_total; the tier keeps serving from memory rather than failing accepted work
	_ = t.st.Commit(seq)
}

// Add enters a fresh record under the next job ID and moves it to queued.
func (t *Table[J]) Add(j J, d Detail) {
	r := j.Rec()
	t.nextID++
	r.ID = fmt.Sprintf("job-%08d", t.nextID)
	r.done = make(chan struct{})
	t.jobs[r.ID] = j
	_ = t.Transition(j, StateQueued, d) // "" → queued is in the table
}

// Restore enters a record replayed from the journal under its own ID, so
// that handles from before the restart keep resolving and new IDs continue
// after the highest one seen. Nothing is journaled; a terminal record is
// settled at once.
func (t *Table[J]) Restore(j J) {
	r := j.Rec()
	var n uint64
	if _, err := fmt.Sscanf(r.ID, "job-%d", &n); err == nil && n > t.nextID {
		t.nextID = n
	}
	r.done = make(chan struct{})
	t.jobs[r.ID] = j
	if r.State.Terminal() {
		t.settle(j)
	}
}

// Transition is the job lifecycle, for both tiers:
//
//	(new) ──► queued ──► running ──► done | failed | canceled
//	            │  ▲        │
//	            │  └────────┘ detached: the worker running it was lost
//	            └──► done (served from a cache, or with the job it coalesced onto)
//	            └──► failed | canceled
//
// Done, failed and canceled are terminal and final: any move not drawn
// above answers ErrConflict and changes nothing. Who may ask for what is
// the tier's business: a Pool cannot preempt its synchronous backends and
// refuses to cancel a running job before asking; a dispatcher cancels a
// running job locally once the worker agreed (or, a sweep, whatever its
// workers say), and is the only caller of running → queued. A legal move,
// in this order: stamps
// d.At as Submitted (new → queued), Started (→ running; cleared again by
// running → queued) or Finished (→ terminal); records d.Err; logs one
// span — stage queued, started, done, failed, canceled or detached — with
// d.Dur and d.Note; advances the revision (a record is born at revision
// 0); writes exactly one journal line (Journal) — submitted, started, done,
// failed or canceled, built from d.Ev, the record and d.At — except for
// running → queued, which journals nothing: the journal keeps the old
// assignment until the next one replaces it; and on a terminal move closes
// Done and evicts the oldest terminal records beyond the retention bound,
// writing a forget line for each after the evicted record's own terminal
// line. The line is in the file before the mutex is released, so journal
// order is move order and no move is readable before it is written.
//
// Callers hold the tier's mutex. Metrics, log lines and flight-recorder
// entries are the tier's own and stay at its call sites.
func (t *Table[J]) Transition(j J, to State, d Detail) error {
	r := j.Rec()
	m, ok := moves[move{r.State, to}]
	if !ok {
		return fmt.Errorf("%w: %q is %s and cannot become %s", ErrConflict, r.ID, r.State, to)
	}
	at, ev := d.At, d.Ev
	if at.IsZero() {
		at = time.Now()
	}
	born := r.State == ""
	switch {
	case born:
		r.Submitted = at
		ev.Key, ev.Engine, ev.Points = r.Key, r.Engine, r.Points
	case to == StateQueued:
		r.Started = time.Time{}
	case to == StateRunning:
		r.Started = at
		ev.Shards = r.Shards
	default:
		r.Finished, r.Err = at, d.Err
		switch to {
		case StateDone:
			ev.Engine, ev.CacheHit, ev.Coalesced = r.Engine, r.CacheHit, r.Coalesced
		case StateFailed:
			ev.Engine, ev.Coalesced, ev.Error = r.Engine, r.Coalesced, d.Err.Error()
		}
	}
	r.State = to
	r.Span(m.stage, d.Dur, d.Note)
	if !born {
		r.rev.Bump()
	}
	if m.event != "" {
		ev.T, ev.At = m.event, at
		t.Journal(j, ev)
	}
	if to.Terminal() {
		t.settle(j)
	}
	return nil
}

// settle closes a terminal record's Done and applies bounded retention,
// keeping the journal's record table in lockstep with it so compaction can
// drop the evicted jobs' lines and a restart replays the same history.
func (t *Table[J]) settle(j J) {
	close(j.Rec().done)
	if t.max < 0 {
		return
	}
	t.terminal = append(t.terminal, j.Rec().ID)
	for len(t.terminal) > t.max {
		id := t.terminal[0]
		t.terminal = t.terminal[1:]
		old, ok := t.jobs[id]
		delete(t.jobs, id)
		if ok {
			t.Journal(old, store.Event{T: store.EvForget, At: time.Now()})
		}
	}
}

// Get looks a record up. Callers hold the mutex.
func (t *Table[J]) Get(id string) (J, error) {
	j, ok := t.jobs[id]
	if !ok {
		return j, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Len is the number of records tracked. Callers hold the mutex.
func (t *Table[J]) Len() int { return len(t.jobs) }

// Snapshot renders a record as a Status: the common header here, the rest
// by the tier's Job.Snapshot. Callers hold the mutex.
func (t *Table[J]) Snapshot(j J) Status {
	r := j.Rec()
	s := Status{
		ID:          r.ID,
		Trace:       r.Trace,
		State:       r.State,
		Engine:      r.Engine,
		CacheHit:    r.CacheHit,
		Coalesced:   r.Coalesced,
		Shards:      r.Shards,
		Sweep:       r.Points > 0,
		Points:      r.Points,
		Profile:     r.ProfileDoc,
		SubmittedAt: r.Submitted,
		StartedAt:   r.Started,
		FinishedAt:  r.Finished,
		Spans:       append([]obs.Span(nil), r.Spans...),
		Rev:         r.rev.N(),
	}
	if r.Err != nil {
		s.Error = r.Err.Error()
	}
	j.Snapshot(&s)
	s.SetProgress()
	return s
}

// Status returns a snapshot of the job's lifecycle.
func (t *Table[J]) Status(id string) (Status, error) {
	return t.WaitTimeout(context.Background(), id, 0, NoRev)
}

// List returns snapshots of every job still tracked, newest first (job
// IDs are monotonic). A non-empty state filters; limit caps the result
// (<= 0: no cap).
func (t *Table[J]) List(state State, limit int) []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.jobs))
	for id, j := range t.jobs {
		if state == "" || j.Rec().State == state {
			ids = append(ids, id)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]Status, len(ids))
	for i, id := range ids {
		out[i] = t.Snapshot(t.jobs[id])
	}
	return out
}

// Wait blocks until the job is terminal, then returns its status. The
// snapshot comes from the record Wait already holds, so it stays valid
// even if retention evicts the record from lookup meanwhile.
func (t *Table[J]) Wait(id string) (Status, error) {
	t.mu.Lock()
	j, err := t.Get(id)
	t.mu.Unlock()
	if err != nil {
		return Status{}, err
	}
	<-j.Rec().done
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Snapshot(j), nil
}

// WaitTimeout is the long-poll primitive behind GET /v1/jobs/{id}?wait=D&rev=N:
// it blocks until the job's revision exceeds since, the job is terminal,
// d elapses or ctx ends (the client hung up, the server is shutting
// down), then returns the job's status at that moment. since = NoRev
// waits for the terminal transition only; a non-positive d answers at once.
func (t *Table[J]) WaitTimeout(ctx context.Context, id string, d time.Duration, since uint64) (Status, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, err := t.Get(id)
	if err != nil {
		return Status{}, err
	}
	r := j.Rec()
	r.rev.Await(ctx, t.mu, r.done, d, since)
	return t.Snapshot(j), nil
}
