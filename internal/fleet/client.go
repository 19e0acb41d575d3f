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

	"repro/internal/jobs"
	"repro/internal/obs"
)

// errWorkerBusy is a worker's 429 backpressure translated into a routing
// signal: try another node rather than failing the submission.
var errWorkerBusy = errors.New("fleet: worker queue full")

// workerError is a failure on the far side of the dispatcher. It names
// the HTTP status the dispatcher's own client gets (jobs.NewHandler asks
// an error for HTTPStatus before consulting the sentinels): 502 when a
// worker could not be reached or its answer made no sense, 503 when there
// is no worker to ask, and a worker's own status and message when the
// dispatcher only passes its verdict on.
type workerError struct {
	code int
	msg  string
}

func (e *workerError) Error() string   { return e.msg }
func (e *workerError) HTTPStatus() int { return e.code }

// badGateway is the workerError of an unreachable or incoherent worker.
func badGateway(format string, args ...any) error {
	return &workerError{http.StatusBadGateway, fmt.Sprintf(format, args...)}
}

// maxReply bounds how much of a worker's reply is read; a sweep result
// set is the largest document a worker serves.
const maxReply = 64 << 20

// client speaks the /v1 worker protocol, decoding replies into the
// documents internal/jobs encodes them from. Every call runs under both
// the caller's context and the http.Client's hard timeout, so a worker
// that accepts a connection and then hangs releases the dispatcher
// goroutine when the deadline fires — it can never wedge it.
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

// do sends one request and returns the worker's status code and body. A
// non-empty trace rides the X-Trace-Id header so the worker's journal,
// logs and spans carry the fleet-wide ID the dispatcher assigned.
func (c *client) do(ctx context.Context, method, path string, body []byte, trace string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, badGateway("fleet: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, badGateway("fleet: %v", err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxReply))
	if err != nil {
		return 0, nil, badGateway("fleet: %s: reading reply: %v", c.base, err)
	}
	return resp.StatusCode, reply, nil
}

// get is do for the calls that expect 200 and a document to decode.
func (c *client) get(ctx context.Context, what, path string, into any) error {
	code, body, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return badGateway("fleet: %s: %s: %s", c.base, what, decodeErr(code, body))
	}
	if err := json.Unmarshal(body, into); err != nil {
		return badGateway("fleet: %s: %s body: %v", c.base, what, err)
	}
	return nil
}

// submit forwards a canonical bundle to path — /v1/jobs, or /v1/sweeps
// for a sub-sweep. A 429 or 503 surfaces as errWorkerBusy so the router
// can spill to another node. The pin and the profile flag ride the query
// (?shards=N, ?profile=true): the forwarded body is re-derived from the
// parsed bundle and cannot carry the submission's top-level flag.
func (c *client) submit(ctx context.Context, path string, raw []byte, pin int, trace string, profile bool) (jobs.SubmitDoc, error) {
	q := neturl.Values{}
	if pin > 0 {
		q.Set("shards", strconv.Itoa(pin))
	}
	if profile {
		q.Set("profile", "true")
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	code, body, err := c.do(ctx, http.MethodPost, path, raw, trace)
	if err != nil {
		return jobs.SubmitDoc{}, err
	}
	switch code {
	case http.StatusAccepted:
		var out jobs.SubmitDoc
		if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
			return jobs.SubmitDoc{}, badGateway("fleet: %s accepted with unreadable body: %v", c.base, err)
		}
		return out, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return jobs.SubmitDoc{}, errWorkerBusy
	default:
		return jobs.SubmitDoc{}, badGateway("fleet: %s: submit: %s", c.base, decodeErr(code, body))
	}
}

// watch parks a revisioned long-poll on a remote job: the worker answers
// as soon as the job's revision exceeds since, the job is terminal, or
// wait elapses. notFound=true means the worker answered but no longer
// knows the ID (it restarted without durable state) — the re-forward
// signal, distinct from a transport error.
func (c *client) watch(ctx context.Context, id string, wait time.Duration, since uint64) (st jobs.StatusDoc, notFound bool, err error) {
	code, body, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%s?wait=%s&rev=%d", id, wait, since), nil, "")
	switch {
	case err != nil:
		return st, false, err
	case code == http.StatusNotFound:
		return st, true, nil
	case code != http.StatusOK:
		return st, false, badGateway("fleet: %s: status: %s", c.base, decodeErr(code, body))
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, false, badGateway("fleet: %s: status body: %v", c.base, err)
	}
	return st, false, nil
}

// cancel forwards DELETE /v1/jobs/{id} and relays the worker's verdict.
func (c *client) cancel(ctx context.Context, id string) (code int, body []byte, err error) {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, "")
}

// engines fetches a worker's registered engine names.
func (c *client) engines(ctx context.Context) ([]string, error) {
	var out struct {
		Engines []string `json:"engines"`
	}
	err := c.get(ctx, "engines", "/v1/engines", &out)
	return out.Engines, err
}

// errorText is the message of a worker's error reply, or the raw body when
// it is not an ErrorDoc.
func errorText(body []byte) string {
	var doc jobs.ErrorDoc
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(body))
}

func decodeErr(code int, body []byte) string {
	if msg := errorText(body); msg != "" {
		return fmt.Sprintf("%d: %s", code, msg)
	}
	return strconv.Itoa(code)
}
