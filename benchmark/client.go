package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// opTimeout bounds one op from submission to decoded result. An op that
// exceeds it counts as failed.
const opTimeout = 120 * time.Second

// longPoll is the ?wait= a status poll parks for.
const longPoll = "30s"

// Entry is one decoded outcome of a result document.
type Entry struct {
	Bitstring string   `json:"bitstring"`
	Index     uint64   `json:"index"`
	Count     int      `json:"count"`
	Energy    *float64 `json:"energy,omitempty"`
}

// Reply is what one op returned.
type Reply struct {
	// Points holds the entries of the result, one slice per sweep point
	// (a job has one).
	Points [][]Entry
	// CacheHit is the terminal status document's cache_hit: a dispatcher
	// learns it from its worker only after the 202.
	CacheHit bool
}

type submitDoc struct {
	ID string `json:"id"`
}

type statusDoc struct {
	State    string `json:"state"`
	Error    string `json:"error"`
	CacheHit bool   `json:"cache_hit"`
}

type resultDoc struct {
	Entries []Entry `json:"entries"`
}

type sweepDoc struct {
	State   string `json:"state"`
	Results []struct {
		Index   int     `json:"index"`
		Entries []Entry `json:"entries"`
	} `json:"results"`
}

// Client speaks the job protocol to one base URL.
type Client struct {
	http *http.Client
	base string
}

// newClient returns a client whose transport keeps conns connections to
// the server alive, one per concurrent caller.
func newClient(base string, conns int) *Client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &Client{http: &http.Client{Transport: tr, Timeout: opTimeout}, base: base}
}

func (c *Client) close() { c.http.CloseIdleConnections() }

// roundTrip sends one request, reads the whole body and, on the wanted
// status code, decodes it into out.
func (c *Client) roundTrip(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding body: %w", method, path, err)
	}
	return nil
}

// Do runs one op through the client protocol that defines its latency:
// POST the bundle, long-poll the status until it is terminal, fetch the
// result and decode it. The caller times the call.
func (c *Client) Do(op Op) (Reply, error) {
	var sub submitDoc
	if err := c.roundTrip(http.MethodPost, op.Path, op.Body, http.StatusAccepted, &sub); err != nil {
		return Reply{}, err
	}
	deadline := time.Now().Add(opTimeout)
	var st statusDoc
	for {
		if err := c.roundTrip(http.MethodGet, "/v1/jobs/"+sub.ID+"?wait="+longPoll, nil, http.StatusOK, &st); err != nil {
			return Reply{}, err
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			return Reply{}, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return Reply{}, fmt.Errorf("job %s still %s after %s", sub.ID, st.State, opTimeout)
		}
	}
	reply := Reply{CacheHit: st.CacheHit}
	if op.Points == 0 {
		var res resultDoc
		if err := c.roundTrip(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK, &res); err != nil {
			return Reply{}, err
		}
		reply.Points = [][]Entry{res.Entries}
		return reply, nil
	}
	var res sweepDoc
	if err := c.roundTrip(http.MethodGet, "/v1/sweeps/"+sub.ID, nil, http.StatusOK, &res); err != nil {
		return Reply{}, err
	}
	for i, p := range res.Results {
		if p.Index != i {
			return Reply{}, fmt.Errorf("sweep %s: result %d carries index %d", sub.ID, i, p.Index)
		}
		reply.Points = append(reply.Points, p.Entries)
	}
	return reply, nil
}

// floorUS times GET /v1/engines, the cheapest request the server answers:
// the HTTP round trip under every op.
func (c *Client) floorUS(n int) (float64, error) {
	var times []float64
	var doc struct {
		Engines []string `json:"engines"`
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := c.roundTrip(http.MethodGet, "/v1/engines", nil, http.StatusOK, &doc); err != nil {
			return 0, err
		}
		times = append(times, micros(time.Since(start)))
	}
	return median(times), nil
}
