package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/qop"
)

// NewHandler exposes a Dispatcher over the same /v1 surface the workers
// serve, so clients cannot tell a fleet front-end from a single node:
//
//	POST   /v1/jobs             submit → routed to a worker (202 {id,state,rev})
//	GET    /v1/jobs             fleet-merged history (?state=&limit=)
//	GET    /v1/jobs/{id}        dispatch status incl. worker + remote ID + "rev"
//	GET    /v1/jobs/{id}/result result proxied from the owning worker
//	DELETE /v1/jobs/{id}        cancel, forwarded to the owning worker
//	POST   /v1/sweeps           parameter sweep → scattered range-wise (202)
//	GET    /v1/sweeps/{id}      merged, globally indexed per-point results
//	GET    /v1/engines          union of engines across healthy workers
//	GET    /v1/stats            dispatcher + per-worker + fleet aggregate
//
// POST /v1/jobs?shards=N forwards the pin to whichever worker runs the
// job. GET /v1/jobs/{id} and GET /v1/sweeps/{id} accept ?wait=<duration>
// to long-poll: the response is delayed until the job turns terminal or
// the duration (capped at 60s) elapses, whichever is first — and, with
// &rev=<revision> from a previous status document or the 202 reply,
// until the dispatcher's record moves past that revision (assignment,
// remote state, sweep progress). Same wire format as the workers
// (jobs.WaitParams parses both), and the dispatcher itself follows its
// workers' jobs through exactly this watch. Submissions
// are accepted as long as the dispatcher is up — if no worker is
// reachable the job queues (durably, when journaled) until the fleet
// returns.
func NewHandler(d *Dispatcher) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(d, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleList(d, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		wait, since, ok := jobs.WaitParams(w, r)
		if !ok {
			return
		}
		st, err := d.WaitTimeout(r.Context(), r.PathValue("id"), wait, since)
		if err != nil {
			jobs.WriteJSON(w, http.StatusNotFound, jobs.ErrorJSON{Error: err.Error()})
			return
		}
		jobs.WriteJSON(w, http.StatusOK, statusToJSON(st))
	})
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		handleSweepSubmit(d, w, r)
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleSweepResult(d, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleResult(d, w, r)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		handleCancel(d, w, r)
	})
	mux.HandleFunc("GET /v1/engines", func(w http.ResponseWriter, r *http.Request) {
		engines, err := d.Engines(r.Context())
		if err != nil {
			jobs.WriteJSON(w, http.StatusServiceUnavailable, jobs.ErrorJSON{Error: err.Error()})
			return
		}
		jobs.WriteJSON(w, http.StatusOK, map[string]any{"engines": engines})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		jobs.WriteJSON(w, http.StatusOK, map[string]any{
			"dispatcher": d.Stats(),
			"workers":    d.WorkerInfos(),
			"fleet":      d.FleetStats(),
			"build":      obs.Build(),
		})
	})
	// The dispatcher's own instruments plus the process-wide registry
	// (go_*/build_info when the server registered them there) in one
	// exposition.
	mux.Handle("GET /metrics", obs.Handler(d.reg, obs.Default()))
	return obs.Recover(mux, d.log, d.reg.Counter("http_panics_total", "Handler panics recovered by the middleware."))
}

type statusJSON struct {
	ID          string      `json:"id"`
	TraceID     string      `json:"trace_id,omitempty"`
	State       jobs.State  `json:"state"`
	Engine      string      `json:"engine,omitempty"`
	Worker      string      `json:"worker,omitempty"`
	Remote      string      `json:"remote,omitempty"`
	CacheHit    bool        `json:"cache_hit"`
	Coalesced   bool        `json:"coalesced,omitempty"`
	Shards      int         `json:"shards,omitempty"`
	Reforwards  int         `json:"reforwards,omitempty"`
	Sweep       bool        `json:"sweep,omitempty"`
	Points      int         `json:"points,omitempty"`
	PointsDone  int         `json:"points_done,omitempty"`
	Progress    float64     `json:"progress,omitempty"`
	EtaMS       float64     `json:"eta_ms,omitempty"`
	Ranges      []RangeInfo `json:"ranges,omitempty"`
	Error       string      `json:"error,omitempty"`
	SubmittedAt string      `json:"submitted_at"`
	StartedAt   string      `json:"started_at,omitempty"`
	FinishedAt  string      `json:"finished_at,omitempty"`
	Spans       []obs.Span  `json:"spans,omitempty"`
	// Profile is the kernel-granular execution profile proxied from the
	// owning worker (profiled submissions only).
	Profile json.RawMessage `json:"profile,omitempty"`
	Rev     uint64          `json:"rev"`
}

func statusToJSON(st Status) statusJSON {
	out := statusJSON{
		ID:          st.ID,
		TraceID:     st.Trace,
		Spans:       st.Spans,
		State:       st.State,
		Engine:      st.Engine,
		Worker:      st.Worker,
		Remote:      st.Remote,
		CacheHit:    st.CacheHit,
		Coalesced:   st.Coalesced,
		Shards:      st.Shards,
		Reforwards:  st.Reforwards,
		Sweep:       st.Sweep,
		Points:      st.Points,
		PointsDone:  st.PointsDone,
		Progress:    st.Progress,
		EtaMS:       float64(st.ETA) / float64(time.Millisecond),
		Ranges:      st.Ranges,
		Profile:     st.Profile,
		Rev:         st.Rev,
		Error:       st.Error,
		SubmittedAt: st.SubmittedAt.UTC().Format(time.RFC3339Nano),
	}
	if !st.StartedAt.IsZero() {
		out.StartedAt = st.StartedAt.UTC().Format(time.RFC3339Nano)
	}
	if !st.FinishedAt.IsZero() {
		out.FinishedAt = st.FinishedAt.UTC().Format(time.RFC3339Nano)
	}
	return out
}

func handleSubmit(d *Dispatcher, w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, jobs.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			jobs.WriteJSON(w, http.StatusRequestEntityTooLarge,
				jobs.ErrorJSON{Error: fmt.Sprintf("fleet: body exceeds %d bytes", jobs.MaxBodyBytes)})
		} else {
			jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: err.Error()})
		}
		return
	}
	b, err := bundle.FromJSON(raw, qop.ValidateOptions{AllowMidCircuit: d.opts.AllowMidCircuit})
	if err != nil {
		jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: err.Error()})
		return
	}
	pin := 0
	if rawShards := r.URL.Query().Get("shards"); rawShards != "" {
		pin, err = strconv.Atoi(rawShards)
		if err != nil || pin < 0 {
			jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: fmt.Sprintf("fleet: invalid shards %q", rawShards)})
			return
		}
	}
	st, err := d.SubmitTraced(b, pin, r.Header.Get(obs.TraceHeader), jobs.ProfileFlag(raw) || r.URL.Query().Get("profile") == "true")
	switch {
	case errors.Is(err, jobs.ErrClosed):
		jobs.WriteJSON(w, http.StatusServiceUnavailable, jobs.ErrorJSON{Error: err.Error()})
		return
	case err != nil:
		jobs.WriteJSON(w, http.StatusInternalServerError, jobs.ErrorJSON{Error: err.Error()})
		return
	}
	// Echo the accepted (possibly dispatcher-generated) trace ID so
	// callers can correlate without parsing the body.
	w.Header().Set(obs.TraceHeader, st.Trace)
	jobs.WriteJSON(w, http.StatusAccepted, map[string]any{
		"id": st.ID, "trace_id": st.Trace, "state": st.State, "cache_hit": st.CacheHit, "rev": st.Rev,
	})
}

func handleList(d *Dispatcher, w http.ResponseWriter, r *http.Request) {
	state := jobs.State(r.URL.Query().Get("state"))
	switch state {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
	default:
		jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: fmt.Sprintf("fleet: unknown state %q", state)})
		return
	}
	limit := 100
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: fmt.Sprintf("fleet: invalid limit %q", raw)})
			return
		}
		limit = n
	}
	sts := d.List(state, limit)
	out := struct {
		Jobs  []statusJSON `json:"jobs"`
		Count int          `json:"count"`
	}{Jobs: make([]statusJSON, len(sts)), Count: len(sts)}
	for i, st := range sts {
		out.Jobs[i] = statusToJSON(st)
	}
	jobs.WriteJSON(w, http.StatusOK, out)
}

func handleResult(d *Dispatcher, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	code, body, err := d.Result(r.Context(), id)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			jobs.WriteJSON(w, http.StatusNotFound, jobs.ErrorJSON{Error: err.Error()})
		case errors.Is(err, jobs.ErrNotFinished):
			jobs.WriteJSON(w, http.StatusAccepted, jobs.ErrorJSON{Error: err.Error()})
		case errors.Is(err, jobs.ErrCanceled):
			jobs.WriteJSON(w, http.StatusGone, jobs.ErrorJSON{Error: err.Error()})
		case errors.Is(err, ErrJobFailed):
			jobs.WriteJSON(w, http.StatusInternalServerError, jobs.ErrorJSON{Error: err.Error()})
		default:
			// Proxy/transport error reaching the owning worker.
			jobs.WriteJSON(w, http.StatusBadGateway, jobs.ErrorJSON{Error: err.Error()})
		}
		return
	}
	// Relay the worker's document (and verdict) verbatim.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func handleSweepSubmit(d *Dispatcher, w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, jobs.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			jobs.WriteJSON(w, http.StatusRequestEntityTooLarge,
				jobs.ErrorJSON{Error: fmt.Sprintf("fleet: body exceeds %d bytes", jobs.MaxBodyBytes)})
		} else {
			jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: err.Error()})
		}
		return
	}
	b, err := bundle.FromJSON(raw, qop.ValidateOptions{AllowMidCircuit: d.opts.AllowMidCircuit})
	if err != nil {
		jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: err.Error()})
		return
	}
	st, err := d.SubmitSweepTraced(b, r.Header.Get(obs.TraceHeader), jobs.ProfileFlag(raw) || r.URL.Query().Get("profile") == "true")
	switch {
	case errors.Is(err, jobs.ErrClosed):
		jobs.WriteJSON(w, http.StatusServiceUnavailable, jobs.ErrorJSON{Error: err.Error()})
		return
	case err != nil:
		jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: err.Error()})
		return
	}
	w.Header().Set(obs.TraceHeader, st.Trace)
	jobs.WriteJSON(w, http.StatusAccepted, map[string]any{
		"id": st.ID, "trace_id": st.Trace, "state": st.State, "points": st.Points, "rev": st.Rev,
	})
}

func handleSweepResult(d *Dispatcher, w http.ResponseWriter, r *http.Request) {
	wait, since, ok := jobs.WaitParams(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	st, err := d.WaitTimeout(r.Context(), id, wait, since)
	if err != nil {
		jobs.WriteJSON(w, http.StatusNotFound, jobs.ErrorJSON{Error: err.Error()})
		return
	}
	merged, engine, err := d.SweepResult(r.Context(), id)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			jobs.WriteJSON(w, http.StatusNotFound, jobs.ErrorJSON{Error: err.Error()})
		case errors.Is(err, ErrNotSweep):
			jobs.WriteJSON(w, http.StatusBadRequest, jobs.ErrorJSON{Error: err.Error()})
		case errors.Is(err, jobs.ErrNotFinished):
			// Still in flight: answer progress, mirroring the worker tier.
			jobs.WriteJSON(w, http.StatusAccepted, statusToJSON(st))
		case errors.Is(err, jobs.ErrCanceled):
			jobs.WriteJSON(w, http.StatusGone, jobs.ErrorJSON{Error: err.Error()})
		case errors.Is(err, ErrJobFailed):
			jobs.WriteJSON(w, http.StatusInternalServerError, jobs.ErrorJSON{Error: err.Error()})
		default:
			jobs.WriteJSON(w, http.StatusBadGateway, jobs.ErrorJSON{Error: err.Error()})
		}
		return
	}
	doc := map[string]any{
		"id":          st.ID,
		"trace_id":    st.Trace,
		"state":       st.State,
		"engine":      engine,
		"points":      st.Points,
		"points_done": st.PointsDone,
		"progress":    st.Progress,
		"results":     merged,
	}
	if len(st.Profile) > 0 {
		doc["profile"] = st.Profile
	}
	jobs.WriteJSON(w, http.StatusOK, doc)
}

func handleCancel(d *Dispatcher, w http.ResponseWriter, r *http.Request) {
	st, err := d.Cancel(r.Context(), r.PathValue("id"))
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			jobs.WriteJSON(w, http.StatusNotFound, jobs.ErrorJSON{Error: err.Error()})
		case errors.Is(err, ErrConflict):
			jobs.WriteJSON(w, http.StatusConflict, jobs.ErrorJSON{Error: err.Error()})
		default:
			jobs.WriteJSON(w, http.StatusBadGateway, jobs.ErrorJSON{Error: err.Error()})
		}
		return
	}
	jobs.WriteJSON(w, http.StatusOK, statusToJSON(st))
}
