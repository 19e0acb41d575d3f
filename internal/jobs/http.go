package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/obs"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
)

// MaxBodyBytes bounds a POST /v1/jobs body; larger submissions are
// rejected with 413.
const MaxBodyBytes = 8 << 20

// NewHandler exposes a Pool over HTTP, speaking the job.json bundle schema
// from internal/schemas:
//
//	POST   /v1/jobs             submit a job.json bundle → 202 {id,state,cache_hit,rev}
//	GET    /v1/jobs             job history listing (?state=done&limit=100)
//	GET    /v1/jobs/{id}        lifecycle status + timing + "rev" (?wait=5s&rev=N long-polls)
//	GET    /v1/jobs/{id}/result decoded result (202 while pending)
//	DELETE /v1/jobs/{id}        cancel a queued (or coalesced) job
//	POST   /v1/sweeps           submit a sweep bundle → 202 {id,state,points,rev}
//	GET    /v1/sweeps/{id}      indexed per-point result set (?wait=5s long-polls)
//	GET    /v1/engines          registered engine names
//	GET    /v1/stats            pool counters incl. cache_hits, coalesced, wide_jobs
//
// A sweep bundle is an ordinary job.json whose context carries a sweep
// block ({"params": [...], "points": [[...], ...]}) and whose operator
// parameters reference the swept names as "$name" markers. The whole grid
// is ONE job: one queue slot, one journal record, per-point fan-out when
// it runs (see SubmitSweep). GET /v1/sweeps/{id} answers 202 with the
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
// POST /v1/jobs?shards=N pins the statevector parallelism grant for that
// job (0 or absent: the scheduler gives a lone simulation the pool's
// max_shards and concurrent jobs one shard; the grant appears in the
// status document as "shards"). Backpressure surfaces as 429 with
// Retry-After when the pool's bounded queue is full.
//
// When the pool is persistent (qmlserve -data-dir), the history listing,
// per-job statuses and results all survive restarts, and /v1/stats gains
// the journal counters (recovered, requeued, disk_hits, journal_events,
// journal_compactions, disk_results).
func NewHandler(p *Pool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(p, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleList(p, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleStatus(p, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleResult(p, w, r)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleCancel(p, w, r)
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		handleSweepSubmit(p, w, r)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleSweepResult(p, w, r)
	})
	mux.HandleFunc("GET /v1/engines", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"engines": backend.Engines()})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.Stats())
	})
	// The pool's own instruments plus the process-wide registry (sim_*
	// stage histograms, and go_*/build_info when the server registered
	// them there) in one exposition.
	mux.Handle("GET /metrics", obs.Handler(p.reg, obs.Default()))
	return obs.Recover(mux, p.log, p.reg.Counter("http_panics_total", "Handler panics recovered by the middleware."))
}

// ErrorJSON is the error document every /v1 endpoint serves; the fleet
// dispatcher speaks the same wire shape.
type ErrorJSON struct {
	Error string `json:"error"`
}

// errorJSON is kept as the local alias the worker handlers use.
type errorJSON = ErrorJSON

type submitJSON struct {
	ID       string `json:"id"`
	TraceID  string `json:"trace_id,omitempty"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Rev      uint64 `json:"rev"`
}

type statusJSON struct {
	ID          string          `json:"id"`
	TraceID     string          `json:"trace_id,omitempty"`
	State       State           `json:"state"`
	Engine      string          `json:"engine,omitempty"`
	CacheHit    bool            `json:"cache_hit"`
	Coalesced   bool            `json:"coalesced,omitempty"`
	Shards      int             `json:"shards,omitempty"`
	Sweep       bool            `json:"sweep,omitempty"`
	Points      int             `json:"points,omitempty"`
	PointsDone  int             `json:"points_done,omitempty"`
	Progress    float64         `json:"progress,omitempty"`
	EtaMS       float64         `json:"eta_ms,omitempty"`
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

type entryJSON struct {
	Bitstring string   `json:"bitstring"`
	Index     uint64   `json:"index"`
	Value     any      `json:"value,omitempty"`
	Count     int      `json:"count"`
	Energy    *float64 `json:"energy,omitempty"`
}

type resultJSON struct {
	ID      string         `json:"id"`
	Engine  string         `json:"engine"`
	Samples int            `json:"samples"`
	Entries []entryJSON    `json:"entries"`
	Meta    map[string]any `json:"meta,omitempty"`
}

// ProfileFlag side-parses the optional top-level "profile" flag from a
// raw submission body. The flag is not part of the bundle schema —
// FromJSON ignores unknown top-level fields and schema validation
// re-marshals from the struct — so it rides verbatim through any proxy
// that forwards the raw body, and reaches the executing worker without
// protocol changes. Proxies that re-derive the body from the parsed
// bundle (the fleet dispatcher re-marshals, which drops unknown fields)
// forward the flag as ?profile=true instead, exactly like shard pins.
func ProfileFlag(raw []byte) bool {
	var flags struct {
		Profile bool `json:"profile"`
	}
	_ = json.Unmarshal(raw, &flags) // malformed bodies already failed FromJSON
	return flags.Profile
}

// queryProfile reads the ?profile=true form of the flag.
func queryProfile(r *http.Request) bool {
	return r.URL.Query().Get("profile") == "true"
}

func handleSubmit(p *Pool, w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r)
	if err != nil {
		return // readBody already replied
	}
	b, err := bundle.FromJSON(raw, qop.ValidateOptions{AllowMidCircuit: p.opts.Run.AllowMidCircuit})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
		return
	}
	var so SubmitOptions
	so.Profile = ProfileFlag(raw) || queryProfile(r)
	if raw := r.URL.Query().Get("shards"); raw != "" {
		shards, err := strconv.Atoi(raw)
		if err != nil || shards < 0 {
			writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("jobs: invalid shards %q", raw)})
			return
		}
		so.Shards = shards
	}
	so.TraceID = r.Header.Get(obs.TraceHeader)
	st, err := p.submit(b, so)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorJSON{err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorJSON{err.Error()})
		return
	}
	// Echo the accepted (possibly server-generated) trace ID so callers
	// can correlate without parsing the body.
	w.Header().Set(obs.TraceHeader, st.Trace)
	writeJSON(w, http.StatusAccepted, submitJSON{ID: st.ID, TraceID: st.Trace, State: st.State, CacheHit: st.CacheHit, Rev: st.Rev})
}

// listDefaultLimit caps GET /v1/jobs responses unless ?limit= overrides.
const listDefaultLimit = 100

func handleList(p *Pool, w http.ResponseWriter, r *http.Request) {
	state := State(r.URL.Query().Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("jobs: unknown state %q", state)})
		return
	}
	limit := listDefaultLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("jobs: invalid limit %q", raw)})
			return
		}
		limit = n
	}
	sts := p.List(state, limit)
	out := struct {
		Jobs  []statusJSON `json:"jobs"`
		Count int          `json:"count"`
	}{Jobs: make([]statusJSON, len(sts)), Count: len(sts)}
	for i, st := range sts {
		out.Jobs[i] = statusToJSON(st)
	}
	writeJSON(w, http.StatusOK, out)
}

// maxLongPoll caps the ?wait= long-poll duration so a handler goroutine
// never hangs past proxy/server timeouts; clients re-issue the poll to
// keep waiting.
const maxLongPoll = 60 * time.Second

// WaitParams parses the long-poll query ?wait=<duration>&rev=<revision>
// for both serving tiers. An absent wait is zero (answer now), an absent
// rev is NoRev (wake at terminal only). ok=false means a parameter was
// present but invalid and the 400 has been written.
func WaitParams(w http.ResponseWriter, r *http.Request) (wait time.Duration, since uint64, ok bool) {
	q := r.URL.Query()
	since = NoRev
	if raw := q.Get("rev"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("jobs: invalid rev %q", raw)})
			return 0, 0, false
		}
		since = n
	}
	if raw := q.Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("jobs: invalid wait %q", raw)})
			return 0, 0, false
		}
		wait = min(d, maxLongPoll)
	}
	return wait, since, true
}

func handleStatus(p *Pool, w http.ResponseWriter, r *http.Request) {
	wait, since, ok := WaitParams(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	st, err := p.WaitTimeout(r.Context(), id, wait, since)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorJSON{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, statusToJSON(st))
}

func handleResult(p *Pool, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := p.Result(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			writeJSON(w, http.StatusNotFound, errorJSON{err.Error()})
		case errors.Is(err, ErrNotFinished):
			// Still queued or running: poll again.
			writeJSON(w, http.StatusAccepted, errorJSON{err.Error()})
		case errors.Is(err, ErrCanceled):
			writeJSON(w, http.StatusGone, errorJSON{err.Error()})
		default: // execution failure
			writeJSON(w, http.StatusInternalServerError, errorJSON{err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, resultToJSON(id, res))
}

func handleCancel(p *Pool, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := p.Cancel(id); err != nil {
		if errors.Is(err, ErrNotFound) {
			writeJSON(w, http.StatusNotFound, errorJSON{err.Error()})
		} else {
			writeJSON(w, http.StatusConflict, errorJSON{err.Error()})
		}
		return
	}
	st, err := p.Status(id)
	if err != nil {
		// The record was evicted (MaxRecords) between Cancel and the
		// lookup; the cancellation itself succeeded.
		st = Status{ID: id, State: StateCanceled}
	}
	writeJSON(w, http.StatusOK, statusToJSON(st))
}

type sweepSubmitJSON struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id,omitempty"`
	State   State  `json:"state"`
	Points  int    `json:"points"`
	Rev     uint64 `json:"rev"`
}

// sweepPointJSON is one indexed per-point result in a sweep result set.
type sweepPointJSON struct {
	Index   int            `json:"index"`
	Engine  string         `json:"engine"`
	Samples int            `json:"samples"`
	Entries []entryJSON    `json:"entries"`
	Meta    map[string]any `json:"meta,omitempty"`
}

type sweepResultJSON struct {
	ID         string           `json:"id"`
	TraceID    string           `json:"trace_id,omitempty"`
	State      State            `json:"state"`
	Engine     string           `json:"engine,omitempty"`
	Points     int              `json:"points"`
	PointsDone int              `json:"points_done"`
	Progress   float64          `json:"progress"`
	Profile    json.RawMessage  `json:"profile,omitempty"`
	Results    []sweepPointJSON `json:"results"`
}

func handleSweepSubmit(p *Pool, w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r)
	if err != nil {
		return // readBody already replied
	}
	b, err := bundle.FromJSON(raw, qop.ValidateOptions{AllowMidCircuit: p.opts.Run.AllowMidCircuit})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
		return
	}
	var so SubmitOptions
	so.Profile = ProfileFlag(raw) || queryProfile(r)
	if raw := r.URL.Query().Get("shards"); raw != "" {
		shards, err := strconv.Atoi(raw)
		if err != nil || shards < 0 {
			writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("jobs: invalid shards %q", raw)})
			return
		}
		so.Shards = shards
	}
	so.TraceID = r.Header.Get(obs.TraceHeader)
	st, err := p.submitSweep(b, so)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorJSON{err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{err.Error()})
		return
	case err != nil:
		// Everything else is a malformed sweep submission (missing sweep
		// block, empty or oversized grid, unkeyable bundle).
		writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
		return
	}
	w.Header().Set(obs.TraceHeader, st.Trace)
	writeJSON(w, http.StatusAccepted, sweepSubmitJSON{ID: st.ID, TraceID: st.Trace, State: st.State, Points: st.Points, Rev: st.Rev})
}

func handleSweepResult(p *Pool, w http.ResponseWriter, r *http.Request) {
	wait, since, ok := WaitParams(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	st, err := p.WaitTimeout(r.Context(), id, wait, since)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorJSON{err.Error()})
		return
	}
	if !st.Sweep {
		writeJSON(w, http.StatusBadRequest, errorJSON{fmt.Sprintf("jobs: %q is not a sweep", id)})
		return
	}
	if !st.State.Terminal() {
		// Still queued or running: report progress, poll (or ?wait=) again.
		writeJSON(w, http.StatusAccepted, statusToJSON(st))
		return
	}
	results, err := p.SweepResult(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			writeJSON(w, http.StatusNotFound, errorJSON{err.Error()})
		case errors.Is(err, ErrCanceled):
			writeJSON(w, http.StatusGone, errorJSON{err.Error()})
		default: // execution failure, or a recovered result file is gone
			writeJSON(w, http.StatusInternalServerError, errorJSON{err.Error()})
		}
		return
	}
	// Re-snapshot: a recovered sweep's aggregated profile materializes on
	// the SweepResult call above (results lazy-load from disk).
	if st2, err2 := p.Status(id); err2 == nil {
		st = st2
	}
	out := sweepResultJSON{
		ID:         st.ID,
		TraceID:    st.Trace,
		State:      st.State,
		Engine:     st.Engine,
		Points:     st.Points,
		PointsDone: st.PointsDone,
		Progress:   st.Progress,
		Profile:    st.Profile,
		Results:    make([]sweepPointJSON, 0, len(results)),
	}
	for i, res := range results {
		rj := resultToJSON(id, res)
		out.Results = append(out.Results, sweepPointJSON{
			Index: i, Engine: rj.Engine, Samples: rj.Samples, Entries: rj.Entries, Meta: rj.Meta,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func statusToJSON(st Status) statusJSON {
	out := statusJSON{
		ID:          st.ID,
		TraceID:     st.Trace,
		State:       st.State,
		Engine:      st.Engine,
		CacheHit:    st.CacheHit,
		Coalesced:   st.Coalesced,
		Shards:      st.Shards,
		Sweep:       st.Sweep,
		Points:      st.Points,
		PointsDone:  st.PointsDone,
		Error:       st.Error,
		SubmittedAt: st.SubmittedAt.UTC().Format(time.RFC3339Nano),
		QueueMS:     float64(st.QueueWait) / float64(time.Millisecond),
		RunMS:       float64(st.RunTime) / float64(time.Millisecond),
		Progress:    st.Progress,
		EtaMS:       float64(st.ETA) / float64(time.Millisecond),
		Spans:       st.Spans,
		Profile:     st.Profile,
		Rev:         st.Rev,
	}
	if !st.StartedAt.IsZero() {
		out.StartedAt = st.StartedAt.UTC().Format(time.RFC3339Nano)
	}
	if !st.FinishedAt.IsZero() {
		out.FinishedAt = st.FinishedAt.UTC().Format(time.RFC3339Nano)
	}
	return out
}

func resultToJSON(id string, res *result.Result) resultJSON {
	out := resultJSON{
		ID:      id,
		Engine:  res.Engine,
		Samples: res.Samples,
		Entries: make([]entryJSON, 0, len(res.Entries)),
		Meta:    res.Meta,
	}
	for _, e := range res.Entries {
		ej := entryJSON{Bitstring: e.Bitstring, Index: e.Index, Value: valueToJSON(e.Value), Count: e.Count}
		if e.HasEnergy {
			energy := e.Energy
			ej.Energy = &energy
		}
		out.Entries = append(out.Entries, ej)
	}
	return out
}

// valueToJSON renders a decoded qdt.Value in its natural JSON shape per
// the register's measurement semantics.
func valueToJSON(v qdt.Value) any {
	switch v.Semantics {
	case qdt.AsInt:
		return v.Int
	case qdt.AsPhase, qdt.AsFixed:
		return v.Float
	case qdt.AsBool:
		return v.Bools
	case qdt.AsSpin:
		return v.Spins
	default:
		return nil
	}
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := readAllLimited(r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorJSON{fmt.Sprintf("jobs: body exceeds %d bytes", MaxBodyBytes)})
		} else {
			writeJSON(w, http.StatusBadRequest, errorJSON{err.Error()})
		}
		return nil, err
	}
	return raw, nil
}

func readAllLimited(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
}

// WriteJSON writes one /v1 response document (indented, with the JSON
// content type). Shared with the fleet dispatcher's handler so both
// services encode identically.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, code int, v any) { WriteJSON(w, code, v) }
