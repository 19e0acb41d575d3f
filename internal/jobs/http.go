package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bundle"
	"repro/internal/obs"
	"repro/internal/qop"
)

// MaxBodyBytes bounds a POST /v1/jobs body; larger submissions are
// rejected with 413.
const MaxBodyBytes = 8 << 20

// Service is the /v1 protocol as Go calls: everything NewHandler needs
// from whatever stands behind it. *Pool executes jobs itself; the fleet
// dispatcher forwards them to workers that speak /v1 in turn. Both answer
// with the same Status, the same documents and the same sentinel errors,
// so one handler serves both and a client cannot tell them apart.
type Service interface {
	// Submit and SubmitSweep accept a bundle as one job and return its
	// snapshot from the accepting critical section.
	Submit(b *bundle.Bundle, o SubmitOptions) (Status, error)
	SubmitSweep(b *bundle.Bundle, o SubmitOptions) (Status, error)
	// WaitTimeout is the long-poll: it returns the job's snapshot once its
	// revision exceeds since (NoRev: never), it is terminal, d elapsed or
	// ctx ended. d ≤ 0 answers at once.
	WaitTimeout(ctx context.Context, id string, d time.Duration, since uint64) (Status, error)
	// List snapshots the retained jobs, newest first.
	List(state State, limit int) []Status
	// WriteResult and WriteSweepResult write the encoded ResultDoc of a
	// done job, or SweepResultDoc of a done sweep, to w — a writer, so that
	// a pool encodes straight onto the connection and a dispatcher passes
	// on a worker's result document untouched. A pool writes a sweep's
	// document point by point, in several Writes. An error means nothing
	// was written — whatever can refuse the document (the job's state, a
	// lost result file, a result with no JSON form) is settled before the
	// first byte — so the caller may still answer with an error document;
	// a write that fails halfway ends the encoding and is not reported
	// (there is no one left to tell).
	WriteResult(ctx context.Context, w io.Writer, id string) error
	WriteSweepResult(ctx context.Context, w io.Writer, id string) error
	// Cancel cancels a job that has not started and returns its snapshot
	// from the same critical section.
	Cancel(ctx context.Context, id string) (Status, error)
	Engines(ctx context.Context) ([]string, error)
	// StatsDoc is the GET /v1/stats document.
	StatsDoc() any

	// What the handler needs besides the protocol: the registry GET
	// /metrics serves, where panics log.
	Metrics() *obs.Registry
	Logger() *slog.Logger
}

// NewHandler serves a Service over HTTP, speaking the job.json bundle
// schema from internal/schemas. This is the one statement of the /v1
// surface; a worker (Pool) and a fleet front-end (fleet.Dispatcher) both
// sit behind it.
//
//	POST   /v1/jobs             submit a job.json bundle → 202 SubmitDoc {id,state,cache_hit,rev}
//	GET    /v1/jobs             job history listing (?state=done&limit=100)
//	GET    /v1/jobs/{id}        StatusDoc: lifecycle + timing + "rev" (?wait=5s&rev=N long-polls)
//	GET    /v1/jobs/{id}/result ResultDoc: decoded result (202 while pending)
//	DELETE /v1/jobs/{id}        cancel a queued (or coalesced) job → its StatusDoc
//	POST   /v1/sweeps           submit a sweep bundle → 202 SweepSubmitDoc {id,state,points,rev}
//	GET    /v1/sweeps/{id}      SweepResultDoc: indexed per-point result set (?wait=5s long-polls)
//	GET    /v1/engines          registered engine names
//	GET    /v1/stats            the service's StatsDoc (a Pool: counters incl. cache_hits, coalesced, wide_jobs)
//	GET    /metrics             the service's registry plus the process-wide one
//
// Errors are an ErrorDoc with the status httpStatus gives the service's
// error: 404 unknown ID, 202 result not ready, 410 canceled, 409 cancel
// refused, 400 wrong result route for the job's kind or a malformed
// sweep, 429 + Retry-After queue full, 503 shutting down, 500 the job
// failed. Input the handler itself refuses — an unreadable bundle, a bad
// state/limit/shards/wait/rev — is 400, a body over MaxBodyBytes 413.
//
// A sweep bundle is an ordinary job.json whose context carries a sweep
// block ({"params": [...], "points": [[...], ...]}) and whose operator
// parameters reference the swept names as "$name" markers. The whole grid
// is ONE job: one queue slot, one journal record, per-point fan-out when
// it runs (see Pool.SubmitSweep). GET /v1/sweeps/{id} answers 202 with the
// lifecycle status (including points_done progress) until the sweep is
// terminal, then the indexed result set.
//
// ?wait=<duration> on GET /v1/jobs/{id} and GET /v1/sweeps/{id} long-polls:
// the response is held until the job turns terminal or the duration
// (capped at 60s) elapses, whichever is first, then carries the status at
// that moment. Pollers get an answer in one round-trip instead of a
// retry loop. Every status document and 202 submit reply carries "rev",
// the record's revision; handing it back as ?wait=D&rev=N makes the poll
// a watch that also returns as soon as the revision exceeds N — on
// queued→running, on each finished sweep point, on an attached profile —
// so a watcher follows the whole lifecycle without a polling cadence
// (the fleet dispatcher watches its workers this way). A stale N returns
// at once. A parked poll also ends when its client disconnects or the
// server begins shutting down.
//
// POST /v1/jobs?shards=N and POST /v1/sweeps?shards=N pin the parallelism
// grant for that job (0 or absent: the scheduler gives a lone simulation
// the pool's max_shards and concurrent jobs one shard; the grant appears
// in the status document as "shards"). A top-level "profile": true in the
// body, or ?profile=true, turns the kernel profiler on. X-Trace-Id is
// honored and echoed on the 202.
//
// When the service is persistent (qmlserve -data-dir), the history
// listing, per-job statuses and results all survive restarts, and
// /v1/stats gains the journal counters (recovered, requeued, disk_hits,
// journal_events, journal_compactions, disk_results).
func NewHandler(s Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", submitHandler(s.Submit, func(st Status) any {
		return SubmitDoc{ID: st.ID, TraceID: st.Trace, State: st.State, CacheHit: st.CacheHit, Rev: st.Rev}
	}))
	mux.HandleFunc("POST /v1/sweeps", submitHandler(s.SubmitSweep, func(st Status) any {
		return SweepSubmitDoc{ID: st.ID, TraceID: st.Trace, State: st.State, Points: st.Points, Rev: st.Rev}
	}))
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleList(s, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if st, ok := awaitStatus(s, w, r); ok {
			writeJSON(w, http.StatusOK, st.Doc())
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		// The first byte written answers 200; an error comes before it.
		w.Header().Set("Content-Type", "application/json")
		if err := s.WriteResult(r.Context(), w, r.PathValue("id")); err != nil {
			writeError(w, err)
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.Context(), r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st.Doc())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := awaitStatus(s, w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		err := s.WriteSweepResult(r.Context(), w, st.ID)
		if errors.Is(err, ErrNotFinished) {
			// Still queued or running: report progress, poll (or ?wait=) again.
			writeJSON(w, http.StatusAccepted, st.Doc())
		} else if err != nil {
			writeError(w, err)
		}
	})
	mux.HandleFunc("GET /v1/engines", func(w http.ResponseWriter, r *http.Request) {
		engines, err := s.Engines(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"engines": engines})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsDoc())
	})
	// The service's own instruments plus the process-wide registry (sim_*
	// stage histograms, and go_*/build_info when the server registered
	// them there) in one exposition.
	mux.Handle("GET /metrics", obs.Handler(s.Metrics(), obs.Default()))
	return obs.Recover(mux, s.Logger(), s.Metrics().Counter("http_panics_total", "Handler panics recovered by the middleware."))
}

// httpStatus is the one place a Service error becomes an HTTP status. An
// error may name its own status (the dispatcher's failures towards a
// worker do: it knows whether the worker was unreachable or refused);
// otherwise the sentinel decides, and an error that is none of them is a
// failed execution.
func httpStatus(err error) int {
	var own interface{ HTTPStatus() int }
	switch {
	case errors.As(err, &own):
		return own.HTTPStatus()
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNotFinished):
		return http.StatusAccepted // still queued or running: poll again
	case errors.Is(err, ErrCanceled):
		return http.StatusGone
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrNotSweep), errors.Is(err, ErrIsSweep), errors.Is(err, ErrBadSweep):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default: // ErrJobFailed, a worker pool's bare execution error, a lost result file
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, ErrorDoc{err.Error()})
}

// badRequest refuses input the handler could not parse.
func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, ErrorDoc{fmt.Sprintf(format, args...)})
}

// ErrorDoc is the body of every /v1 reply that is not the document asked
// for.
type ErrorDoc struct {
	Error string `json:"error"`
}

// SubmitDoc is the 202 reply to POST /v1/jobs.
type SubmitDoc struct {
	ID       string `json:"id"`
	TraceID  string `json:"trace_id,omitempty"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Rev      uint64 `json:"rev"`
}

// SweepSubmitDoc is the 202 reply to POST /v1/sweeps.
type SweepSubmitDoc struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id,omitempty"`
	State   State  `json:"state"`
	Points  int    `json:"points"`
	Rev     uint64 `json:"rev"`
}

// StatusDoc is a Status on the wire: GET /v1/jobs/{id}, each element of
// the listing, the DELETE reply and the 202 progress reply of GET
// /v1/sweeps/{id}. Worker, Remote, Reforwards and Ranges are set by a
// dispatcher only.
type StatusDoc struct {
	ID          string          `json:"id"`
	TraceID     string          `json:"trace_id,omitempty"`
	State       State           `json:"state"`
	Engine      string          `json:"engine,omitempty"`
	Worker      string          `json:"worker,omitempty"`
	Remote      string          `json:"remote,omitempty"`
	CacheHit    bool            `json:"cache_hit"`
	Coalesced   bool            `json:"coalesced,omitempty"`
	Shards      int             `json:"shards,omitempty"`
	Reforwards  int             `json:"reforwards,omitempty"`
	Sweep       bool            `json:"sweep,omitempty"`
	Points      int             `json:"points,omitempty"`
	PointsDone  int             `json:"points_done,omitempty"`
	Progress    float64         `json:"progress,omitempty"`
	EtaMS       float64         `json:"eta_ms,omitempty"`
	Ranges      []RangeInfo     `json:"ranges,omitempty"`
	Error       string          `json:"error,omitempty"`
	SubmittedAt string          `json:"submitted_at"`
	StartedAt   string          `json:"started_at,omitempty"`
	FinishedAt  string          `json:"finished_at,omitempty"`
	QueueMS     float64         `json:"queue_ms"`
	RunMS       float64         `json:"run_ms"`
	Spans       []obs.Span      `json:"spans,omitempty"`
	Profile     json.RawMessage `json:"profile,omitempty"`
	Rev         uint64          `json:"rev"`
}

// Doc renders the snapshot as its wire document.
func (s Status) Doc() StatusDoc {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	return StatusDoc{
		ID:          s.ID,
		TraceID:     s.Trace,
		State:       s.State,
		Engine:      s.Engine,
		Worker:      s.Worker,
		Remote:      s.Remote,
		CacheHit:    s.CacheHit,
		Coalesced:   s.Coalesced,
		Shards:      s.Shards,
		Reforwards:  s.Reforwards,
		Sweep:       s.Sweep,
		Points:      s.Points,
		PointsDone:  s.PointsDone,
		Progress:    s.Progress,
		EtaMS:       ms(s.ETA),
		Ranges:      s.Ranges,
		Error:       s.Error,
		SubmittedAt: s.SubmittedAt.UTC().Format(time.RFC3339Nano),
		StartedAt:   stamp(s.StartedAt),
		FinishedAt:  stamp(s.FinishedAt),
		QueueMS:     ms(s.QueueWait()),
		RunMS:       ms(s.RunTime()),
		Spans:       s.Spans,
		Profile:     s.Profile,
		Rev:         s.Rev,
	}
}

// submission reads one POST body and its modifiers: the bundle (at most
// MaxBodyBytes, validated under the service's options), the profile flag
// from the body or ?profile=true, the ?shards= pin and the X-Trace-Id.
// ok=false means the request was refused and answered.
func submission(w http.ResponseWriter, r *http.Request) (b *bundle.Bundle, o SubmitOptions, ok bool) {
	defer r.Body.Close()
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorDoc{fmt.Sprintf("jobs: body exceeds %d bytes", MaxBodyBytes)})
		} else {
			badRequest(w, "%v", err)
		}
		return nil, o, false
	}
	if b, err = bundle.FromJSON(raw, qop.ValidateOptions{}); err != nil {
		badRequest(w, "%v", err)
		return nil, o, false
	}
	q := r.URL.Query()
	// The flag is not part of the bundle schema — FromJSON ignores unknown
	// top-level fields — so it is side-parsed from the raw body. A proxy
	// that re-derives the body from the parsed bundle (the dispatcher does)
	// sends ?profile=true instead, exactly like a shard pin.
	var flags struct {
		Profile bool `json:"profile"`
	}
	_ = json.Unmarshal(raw, &flags) // a malformed body already failed FromJSON
	o.Profile = flags.Profile || q.Get("profile") == "true"
	if raw := q.Get("shards"); raw != "" {
		if o.Shards, err = strconv.Atoi(raw); err != nil || o.Shards < 0 {
			badRequest(w, "jobs: invalid shards %q", raw)
			return nil, o, false
		}
	}
	o.TraceID = r.Header.Get(obs.TraceHeader)
	return b, o, true
}

// submitHandler serves one of the two POST routes: they differ in the
// Service call that accepts the bundle and in the 202 document.
func submitHandler(accept func(*bundle.Bundle, SubmitOptions) (Status, error), reply func(Status) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b, o, ok := submission(w, r)
		if !ok {
			return
		}
		st, err := accept(b, o)
		if err != nil {
			writeError(w, err)
			return
		}
		// Echo the accepted (possibly server-generated) trace ID so callers
		// can correlate without parsing the body.
		w.Header().Set(obs.TraceHeader, st.Trace)
		writeJSON(w, http.StatusAccepted, reply(st))
	}
}

// listDefaultLimit caps GET /v1/jobs responses unless ?limit= overrides.
const listDefaultLimit = 100

func handleList(s Service, w http.ResponseWriter, r *http.Request) {
	state := State(r.URL.Query().Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		badRequest(w, "jobs: unknown state %q", state)
		return
	}
	limit := listDefaultLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			badRequest(w, "jobs: invalid limit %q", raw)
			return
		}
		limit = n
	}
	sts := s.List(state, limit)
	out := struct {
		Jobs  []StatusDoc `json:"jobs"`
		Count int         `json:"count"`
	}{Jobs: make([]StatusDoc, len(sts)), Count: len(sts)}
	for i, st := range sts {
		out.Jobs[i] = st.Doc()
	}
	writeJSON(w, http.StatusOK, out)
}

// maxLongPoll caps the ?wait= long-poll duration so a handler goroutine
// never hangs past proxy/server timeouts; clients re-issue the poll to
// keep waiting.
const maxLongPoll = 60 * time.Second

// awaitStatus serves the ?wait=<duration>&rev=<revision> long-poll on the
// job named in the path. An absent wait is zero (answer now), an absent
// rev is NoRev (wake at terminal only). ok=false means the request was
// refused, or the job is unknown, and has been answered.
func awaitStatus(s Service, w http.ResponseWriter, r *http.Request) (st Status, ok bool) {
	q := r.URL.Query()
	since, wait := NoRev, time.Duration(0)
	if raw := q.Get("rev"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			badRequest(w, "jobs: invalid rev %q", raw)
			return st, false
		}
		since = n
	}
	if raw := q.Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			badRequest(w, "jobs: invalid wait %q", raw)
			return st, false
		}
		wait = min(d, maxLongPoll)
	}
	st, err := s.WaitTimeout(r.Context(), r.PathValue("id"), wait, since)
	if err != nil {
		writeError(w, err)
		return st, false
	}
	return st, true
}

// WriteDoc writes v in the one encoding every /v1 document has: indented
// by two spaces, newline-terminated. A failed write is not reported: the
// status line is out, and there is no one left to tell. Nor is a value
// encoding/json refuses — every document written here is built from
// strings, numbers and times; a Pool's result documents, which carry
// whatever an engine put in Meta, are written by appendResult instead.
func WriteDoc(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	WriteDoc(w, v)
}
