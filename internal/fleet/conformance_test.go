package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
)

// gatedFake is an engine that holds every execution at its gate until the
// scenario opens it, so a job can be caught queued or running on either
// tier; with fail set it then fails instead of answering.
type gatedFake struct {
	name string
	gate chan struct{}
	fail bool
}

func (f *gatedFake) Name() string { return f.name }

func (f *gatedFake) Prepare(_ *bundle.Bundle, o backend.ExecOptions) (backend.Prepared, error) {
	return backend.PerPoint(f.Execute, o), nil
}

func (f *gatedFake) Execute(b *bundle.Bundle, _ backend.ExecOptions) (*result.Result, error) {
	<-f.gate
	if f.fail {
		return nil, fmt.Errorf("%s: injected failure", f.name)
	}
	return &result.Result{Engine: f.name, Samples: 100, Entries: []result.Entry{{Bitstring: "0101", Index: 5, Count: 100}}}, nil
}

// registerGated installs a gatedFake and returns the function that opens
// its gate (also at test end, so that no pool waits on it forever).
func registerGated(t *testing.T, name string, fail bool) (open func()) {
	t.Helper()
	f := &gatedFake{name: name, gate: make(chan struct{}), fail: fail}
	backend.Register(name, func() backend.Backend { return f })
	opened := false
	open = func() {
		if !opened {
			opened = true
			close(f.gate)
		}
	}
	t.Cleanup(func() {
		open()
		backend.Unregister(name)
	})
	return open
}

// step is one request of the conformance scenario. The scenario is the
// same on both tiers; only the handler it is sent to differs.
type step struct {
	name   string
	method string
	// path may hold {x}: the "id" of the reply to the step that set save: "x".
	path string
	body []byte
	code int
	save string
	// until repeats a GET as a revisioned long-poll until the reply carries
	// this "state" (a status document), or — for "200" — that status code.
	until string
	// then runs after the step (to open a gate).
	then func()
	// check inspects the decoded reply on both tiers.
	check func(t *testing.T, doc map[string]any)
	// plain marks a reply that is not a JSON document: the mux's own 404
	// for a route the surface does not have.
	plain bool
}

// opaque are the document members whose contents are a tier's own business
// (its lifecycle log, the engine's metadata, counters); only their
// presence is compared.
var opaque = map[string]bool{"spans": true, "meta": true, "profile": true, "ranges": true}

// dispatcherOnly are the status members a dispatcher may add.
var dispatcherOnly = map[string]bool{"worker": true, "remote": true, "reforwards": true, "ranges": true}

// shape lists the key paths of a document: every member name, recursing
// into objects and into the first element of arrays.
func shape(v any, prefix string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, el := range v {
			into[prefix+k] = true
			if !opaque[k] {
				shape(el, prefix+k+".", into)
			}
		}
	case []any:
		if len(v) > 0 {
			shape(v[0], prefix+"[].", into)
		}
	}
}

func shapeOf(doc map[string]any, drop map[string]bool) string {
	set := map[string]bool{}
	shape(doc, "", set)
	var keys []string
	for k := range set {
		if !drop[k[strings.LastIndex(k, ".")+1:]] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// exchange is what one step produced: the status code and the reply's shape.
type exchange struct {
	code  int
	shape string
}

// runScenario sends the steps to h in order and returns what came back.
func runScenario(t *testing.T, h http.Handler, steps []step, drop map[string]bool) map[string]exchange {
	t.Helper()
	ids := map[string]string{}
	out := map[string]exchange{}
	for _, s := range steps {
		path := s.path
		for name, id := range ids {
			path = strings.ReplaceAll(path, "{"+name+"}", id)
		}
		var code int
		var doc map[string]any
		rev, deadline := uint64(0), time.Now().Add(30*time.Second)
		for {
			target := path
			if s.until != "" {
				target += fmt.Sprintf("?wait=2s&rev=%d", rev)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(s.method, target, bytes.NewReader(s.body)))
			code, doc = w.Code, map[string]any{}
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil && !s.plain {
				t.Fatalf("%s: %s %s: body is not a JSON object: %v\n%s", s.name, s.method, target, err, w.Body)
			}
			if s.until == "" || doc["state"] == s.until || fmt.Sprint(code) == s.until {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %s %s never reached %q; last reply %d %v", s.name, s.method, path, s.until, code, doc)
			}
			if r, ok := doc["rev"].(float64); ok {
				rev = uint64(r)
			}
		}
		if code != s.code {
			t.Errorf("%s: %s %s = %d, want %d (%v)", s.name, s.method, path, code, s.code, doc)
		}
		if s.save != "" {
			ids[s.save], _ = doc["id"].(string)
		}
		if s.check != nil {
			s.check(t, doc)
		}
		if s.then != nil {
			s.then()
		}
		out[s.name] = exchange{code, shapeOf(doc, drop)}
	}
	return out
}

// conformBundle is a four-qubit QAOA job for the named engine; with points
// it is the sweep template over them.
func conformBundle(t *testing.T, engine string, seed uint64, points [][]float64) []byte {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	ctx := ctxdesc.NewGate(engine, 64, seed)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.39}, []float64{1.17})
	if points != nil {
		seq, err = algolib.BuildQAOASymbolic(reg, graph.Cycle(4), []string{"gamma0"}, []string{"beta0"})
		ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestConformance is the cross-tier contract of the /v1 surface: one
// scenario — every route, with its ok, unknown-ID, not-finished, canceled,
// failed, conflict, bad-input, oversized and wrong-kind cases — is sent
// through jobs.NewHandler over a Pool and over a Dispatcher fronting two
// workers. Both must answer every step with the same status code and
// documents of the same shape; a dispatcher's status documents may carry
// worker, remote, reforwards and ranges on top.
func TestConformance(t *testing.T) {
	newPool := func(t *testing.T) *jobs.Pool {
		p := jobs.NewPool(jobs.Options{Workers: 2, QueueDepth: 16, MaxShards: 4})
		t.Cleanup(p.Close)
		return p
	}
	tiers := []struct {
		name    string
		handler func(t *testing.T) http.Handler
		drop    map[string]bool
	}{
		{"pool", func(t *testing.T) http.Handler { return jobs.NewHandler(newPool(t)) }, nil},
		{"dispatcher", func(t *testing.T) http.Handler {
			var urls []string
			for i := 0; i < 2; i++ {
				srv := httptest.NewServer(jobs.NewHandler(newPool(t)))
				t.Cleanup(srv.Close)
				urls = append(urls, srv.URL)
			}
			return jobs.NewHandler(newDispatcher(t, Options{
				Workers: urls, RequestTimeout: 2 * time.Second, ProbeInterval: 20 * time.Millisecond,
			}))
		}, dispatcherOnly},
	}

	got := map[string]map[string]exchange{}
	var names []string
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			// The handler first: cleanups run last-in first-out, and the gates
			// must open before the pools drain.
			h := tier.handler(t)
			openJob := registerGated(t, "fake.conform", false)
			openFail := registerGated(t, "fake.conform_fail", true)
			openSweep := registerGated(t, "fake.conform_sweep", false)
			job := conformBundle(t, "fake.conform", 1, nil)
			sweep := conformBundle(t, "fake.conform_sweep", 2, [][]float64{{0.3, 0.7}, {1.1, 0.2}, {0.8, 1.4}})
			// A rule once stated only in the schemas: a cost hint is never negative.
			var neg bundle.Bundle
			if err := json.Unmarshal(job, &neg); err != nil {
				t.Fatal(err)
			}
			neg.Operators[0].CostHint = &qop.CostHint{TwoQ: -1}
			negHint, err := neg.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			naming := func(field string) func(t *testing.T, doc map[string]any) {
				return func(t *testing.T, doc map[string]any) {
					if msg, _ := doc["error"].(string); !strings.Contains(msg, field) {
						t.Errorf("error %q does not name %s", msg, field)
					}
				}
			}
			// No refused POST takes an ID, so none wrote a journal record.
			firstID := func(t *testing.T, doc map[string]any) {
				if doc["id"] != "job-00000001" {
					t.Errorf("first admitted job is %v, want job-00000001", doc["id"])
				}
			}
			pinned := func(t *testing.T, doc map[string]any) {
				if doc["shards"] != float64(1) {
					t.Errorf("sweep submitted with ?shards=1 ran with shards=%v", doc["shards"])
				}
			}
			steps := []step{
				{name: "engines", method: "GET", path: "/v1/engines", code: 200},
				// Counters are on /metrics alone.
				{name: "stats", method: "GET", path: "/v1/stats", code: 404, plain: true},

				// Input the handler refuses, the same way whatever it fronts.
				{name: "job bad shards", method: "POST", path: "/v1/jobs?shards=bogus", body: job, code: 400},
				{name: "sweep bad shards", method: "POST", path: "/v1/sweeps?shards=-1", body: sweep, code: 400},
				{name: "job bad body", method: "POST", path: "/v1/jobs", body: []byte("{not json"), code: 400},
				{name: "job not a bundle", method: "POST", path: "/v1/jobs", body: []byte(`{"not":"a bundle"}`), code: 400},
				{name: "job negative cost hint", method: "POST", path: "/v1/jobs", body: negHint, code: 400, check: naming("cost_hint.twoq")},
				{name: "sweep without grid", method: "POST", path: "/v1/sweeps", body: job, code: 400},
				{name: "job oversized", method: "POST", path: "/v1/jobs", body: make([]byte, jobs.MaxBodyBytes+1), code: 413},
				{name: "sweep oversized", method: "POST", path: "/v1/sweeps", body: make([]byte, jobs.MaxBodyBytes+1), code: 413},
				{name: "list bad state", method: "GET", path: "/v1/jobs?state=bogus", code: 400},
				{name: "list bad limit", method: "GET", path: "/v1/jobs?limit=0", code: 400},
				{name: "status bad wait", method: "GET", path: "/v1/jobs/job-00000001?wait=banana", code: 400},
				{name: "status bad rev", method: "GET", path: "/v1/jobs/job-00000001?wait=1s&rev=x", code: 400},
				{name: "sweep result bad wait", method: "GET", path: "/v1/sweeps/job-00000001?wait=-1s", code: 400},
				{name: "sweep result bad rev", method: "GET", path: "/v1/sweeps/job-00000001?rev=-1", code: 400},

				{name: "status unknown", method: "GET", path: "/v1/jobs/job-99999999", code: 404},
				{name: "result unknown", method: "GET", path: "/v1/jobs/job-99999999/result", code: 404},
				{name: "cancel unknown", method: "DELETE", path: "/v1/jobs/job-99999999", code: 404},
				{name: "sweep result unknown", method: "GET", path: "/v1/sweeps/job-99999999", code: 404},

				// A job held running, and its twin, which waits on it.
				{name: "submit", method: "POST", path: "/v1/jobs", body: job, code: 202, save: "a", check: firstID},
				{name: "status running", method: "GET", path: "/v1/jobs/{a}", code: 200, until: "running"},
				{name: "result not finished", method: "GET", path: "/v1/jobs/{a}/result", code: 202},
				{name: "cancel running", method: "DELETE", path: "/v1/jobs/{a}", code: 409},
				{name: "sweep result of plain job", method: "GET", path: "/v1/sweeps/{a}", code: 400},
				{name: "submit twin", method: "POST", path: "/v1/jobs", body: job, code: 202, save: "twin"},
				{name: "cancel twin", method: "DELETE", path: "/v1/jobs/{twin}", code: 200},
				{name: "status canceled", method: "GET", path: "/v1/jobs/{twin}", code: 200},
				{name: "result canceled", method: "GET", path: "/v1/jobs/{twin}/result", code: 410},
				{name: "cancel canceled", method: "DELETE", path: "/v1/jobs/{twin}", code: 409, then: openJob},
				{name: "status done", method: "GET", path: "/v1/jobs/{a}", code: 200, until: "done"},
				{name: "result", method: "GET", path: "/v1/jobs/{a}/result", code: 200},
				{name: "cancel done", method: "DELETE", path: "/v1/jobs/{a}", code: 409},

				// A job that fails once it runs.
				{name: "submit failing", method: "POST", path: "/v1/jobs", body: conformBundle(t, "fake.conform_fail", 3, nil), code: 202, save: "f"},
				{name: "status failing, running", method: "GET", path: "/v1/jobs/{f}", code: 200, until: "running", then: openFail},
				{name: "status failed", method: "GET", path: "/v1/jobs/{f}", code: 200, until: "failed"},
				{name: "result failed", method: "GET", path: "/v1/jobs/{f}/result", code: 500},

				// A pinned sweep held at its first point.
				{name: "submit sweep", method: "POST", path: "/v1/sweeps?shards=1", body: sweep, code: 202, save: "s"},
				{name: "sweep status running", method: "GET", path: "/v1/jobs/{s}", code: 200, until: "running", check: pinned},
				{name: "sweep result not finished", method: "GET", path: "/v1/sweeps/{s}", code: 202},
				{name: "result of sweep", method: "GET", path: "/v1/jobs/{s}/result", code: 400, then: openSweep},
				{name: "sweep result", method: "GET", path: "/v1/sweeps/{s}", code: 200, until: "200"},
				{name: "sweep status done", method: "GET", path: "/v1/jobs/{s}", code: 200, check: pinned},
				{name: "result of done sweep", method: "GET", path: "/v1/jobs/{s}/result", code: 400},

				{name: "list", method: "GET", path: "/v1/jobs?limit=2", code: 200},
				{name: "list failed", method: "GET", path: "/v1/jobs?state=failed", code: 200},
			}
			if names == nil {
				for _, s := range steps {
					names = append(names, s.name)
				}
			}
			got[tier.name] = runScenario(t, h, steps, tier.drop)
		})
	}
	for _, name := range names {
		pool, disp := got["pool"][name], got["dispatcher"][name]
		if pool.code != disp.code {
			t.Errorf("%s: pool answers %d, dispatcher %d", name, pool.code, disp.code)
		}
		if pool.shape != disp.shape {
			t.Errorf("%s: documents differ in shape\n      pool: %s\ndispatcher: %s", name, pool.shape, disp.shape)
		}
	}
}
