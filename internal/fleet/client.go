package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// errWorkerBusy is a worker's 429 backpressure translated into a routing
// signal: try another node rather than failing the submission.
var errWorkerBusy = errors.New("fleet: worker queue full")

// client speaks the /v1 worker protocol. Every call runs under both the
// caller's context and the http.Client's hard timeout, so a worker that
// accepts a connection and then hangs releases the dispatcher goroutine
// when the deadline fires — it can never wedge it.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, hc *http.Client) *client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &client{base: strings.TrimRight(base, "/"), hc: hc}
}

// remoteSubmit is a worker's 202 response to POST /v1/jobs.
type remoteSubmit struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	// Rev is the remote job's revision at acceptance: where the
	// dispatcher's first watch starts from.
	Rev uint64 `json:"rev"`
}

// remoteStatus is a worker's GET /v1/jobs/{id} document (the fields the
// dispatcher consumes).
type remoteStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Engine    string `json:"engine"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	Shards    int    `json:"shards"`
	Error     string `json:"error"`
	// Sweep fields: a sub-sweep job reports its range-local progress.
	Sweep      bool `json:"sweep"`
	Points     int  `json:"points"`
	PointsDone int  `json:"points_done"`
	// Profile is the worker's kernel-granular execution profile document
	// (profiled jobs only; for sub-sweeps, the worker's per-kind
	// aggregate). Proxied opaquely — the dispatcher never parses it, so
	// worker-side profile schema evolution needs no fleet change.
	Profile json.RawMessage `json:"profile"`
	// Rev is the remote job's revision; handed back on the next watch.
	Rev uint64 `json:"rev"`
}

type remoteError struct {
	Error string `json:"error"`
}

// submit forwards a canonical bundle. A 429 surfaces as errWorkerBusy so
// the router can spill to another node. A non-empty trace rides the
// X-Trace-Id header so the worker's journal, logs and spans carry the
// same fleet-wide ID the dispatcher assigned. profile rides the
// ?profile=true query form, since the forwarded body is re-derived from
// the parsed bundle and cannot carry the submission's top-level flag.
func (c *client) submit(ctx context.Context, raw []byte, pin int, trace string, profile bool) (remoteSubmit, error) {
	url := c.base + "/v1/jobs"
	q := neturl.Values{}
	if pin > 0 {
		q.Set("shards", strconv.Itoa(pin))
	}
	if profile {
		q.Set("profile", "true")
	}
	if len(q) > 0 {
		url += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return remoteSubmit{}, fmt.Errorf("fleet: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return remoteSubmit{}, fmt.Errorf("fleet: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	switch resp.StatusCode {
	case http.StatusAccepted:
		var out remoteSubmit
		if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
			return remoteSubmit{}, fmt.Errorf("fleet: %s accepted with unreadable body: %v", c.base, err)
		}
		return out, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return remoteSubmit{}, errWorkerBusy
	default:
		return remoteSubmit{}, fmt.Errorf("fleet: %s: submit: %s", c.base, decodeErr(resp.StatusCode, body))
	}
}

// submitSweep forwards a sub-sweep bundle to a worker's POST /v1/sweeps.
// Backpressure spills to another node exactly like plain submissions;
// profile rides ?profile=true like plain submissions too.
func (c *client) submitSweep(ctx context.Context, raw []byte, trace string, profile bool) (remoteSubmit, error) {
	url := c.base + "/v1/sweeps"
	if profile {
		url += "?profile=true"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return remoteSubmit{}, fmt.Errorf("fleet: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return remoteSubmit{}, fmt.Errorf("fleet: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	switch resp.StatusCode {
	case http.StatusAccepted:
		var out remoteSubmit
		if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
			return remoteSubmit{}, fmt.Errorf("fleet: %s accepted sweep with unreadable body: %v", c.base, err)
		}
		return out, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return remoteSubmit{}, errWorkerBusy
	default:
		return remoteSubmit{}, fmt.Errorf("fleet: %s: sweep submit: %s", c.base, decodeErr(resp.StatusCode, body))
	}
}

// sweepResultRaw fetches a worker's indexed sub-sweep result document
// for range merging.
func (c *client) sweepResultRaw(ctx context.Context, id string) (code int, body []byte, err error) {
	resp, err := c.get(ctx, "/v1/sweeps/"+id)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, fmt.Errorf("fleet: %s: sweep result body: %w", c.base, err)
	}
	return resp.StatusCode, body, nil
}

// watch parks a revisioned long-poll on a remote job: the worker answers
// as soon as the job's revision exceeds since, the job is terminal, or
// wait elapses. notFound=true means the worker answered but no longer
// knows the ID (it restarted without durable state) — the re-forward
// signal, distinct from a transport error.
func (c *client) watch(ctx context.Context, id string, wait time.Duration, since uint64) (st remoteStatus, notFound bool, err error) {
	resp, err := c.get(ctx, fmt.Sprintf("/v1/jobs/%s?wait=%s&rev=%d", id, wait, since))
	if err != nil {
		return remoteStatus{}, false, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.Unmarshal(body, &st); err != nil {
			return remoteStatus{}, false, fmt.Errorf("fleet: %s: status body: %w", c.base, err)
		}
		return st, false, nil
	case http.StatusNotFound:
		return remoteStatus{}, true, nil
	default:
		return remoteStatus{}, false, fmt.Errorf("fleet: %s: status: %s", c.base, decodeErr(resp.StatusCode, body))
	}
}

// resultRaw fetches a remote result document verbatim for proxying.
func (c *client) resultRaw(ctx context.Context, id string) (code int, body []byte, err error) {
	resp, err := c.get(ctx, "/v1/jobs/"+id+"/result")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, fmt.Errorf("fleet: %s: result body: %w", c.base, err)
	}
	return resp.StatusCode, body, nil
}

// cancel forwards DELETE /v1/jobs/{id} and relays the worker's verdict.
func (c *client) cancel(ctx context.Context, id string) (code int, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("fleet: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("fleet: %w", err)
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, body, nil
}

// stats fetches /v1/stats as a generic document — the probe heartbeat
// and the raw material for fleet-wide aggregation.
func (c *client) stats(ctx context.Context) (map[string]any, error) {
	resp, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s: stats: %s", c.base, decodeErr(resp.StatusCode, body))
	}
	out := map[string]any{}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("fleet: %s: stats body: %w", c.base, err)
	}
	return out, nil
}

// engines fetches a worker's registered engine names.
func (c *client) engines(ctx context.Context) ([]string, error) {
	resp, err := c.get(ctx, "/v1/engines")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s: engines: %s", c.base, decodeErr(resp.StatusCode, body))
	}
	var out struct {
		Engines []string `json:"engines"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("fleet: %s: engines body: %w", c.base, err)
	}
	return out.Engines, nil
}

func (c *client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return resp, nil
}

func decodeErr(code int, body []byte) string {
	var re remoteError
	if json.Unmarshal(body, &re) == nil && re.Error != "" {
		return fmt.Sprintf("%d: %s", code, re.Error)
	}
	return fmt.Sprintf("%d", code)
}
