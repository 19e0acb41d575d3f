package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qdt"
)

// slowBundle builds a 22-qubit p=2 QAOA statevector job: ~1.5 s on one
// shard, a wide-open window to SIGKILL its worker mid-run. Identical
// (intent, samples, seed) ⇒ identical sampled counts wherever it runs.
func slowBundle(t testing.TB, seed uint64) []byte {
	t.Helper()
	const n = 22
	reg := qdt.NewIsingVars("ising_vars", "s", n)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(n), []float64{0.39, 0.21}, []float64{1.17, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("gate.statevector", 512, seed))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func postJob(t testing.TB, s *server, raw []byte) string {
	return postJobTraced(t, s, raw, "")
}

// postJobTraced submits with an optional X-Trace-Id and checks the
// accepted trace echoes on the 202 header.
func postJobTraced(t testing.TB, s *server, raw []byte, trace string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, s.url("/v1/jobs"), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.ID == "" {
		t.Fatalf("submit: %v (%+v)", err, sub)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit code %d", resp.StatusCode)
	}
	if trace != "" && resp.Header.Get(obs.TraceHeader) != trace {
		t.Fatalf("202 %s = %q, want %q", obs.TraceHeader, resp.Header.Get(obs.TraceHeader), trace)
	}
	return sub.ID
}

// scrapeMetrics GETs /metrics off a process and runs the strict
// exposition parser, returning families by name.
func scrapeMetrics(t testing.TB, s *server) map[string]obs.Family {
	t.Helper()
	resp, err := http.Get(s.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d (%s)", resp.StatusCode, raw)
	}
	fams, err := obs.ParseExposition(string(raw))
	if err != nil {
		t.Fatalf("/metrics on %s does not parse: %v", s.addr, err)
	}
	byName := map[string]obs.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// metric is the first sample of the named family on s's /metrics that
// carries every given label.
func metric(t testing.TB, s *server, name string, labels ...obs.Label) float64 {
	t.Helper()
	f := scrapeMetrics(t, s)[name]
	v, ok := f.Value(labels...)
	if !ok {
		t.Fatalf("/metrics on %s has no %s%v", s.addr, name, labels)
	}
	return v
}

// TestDispatchAcceptance is the PR acceptance test at the process level:
// a dispatcher qmlserve fronting two in-memory worker qmlserves must
// (a) route a job to a worker and, when that worker is SIGKILLed
// mid-run, re-forward it to the survivor where it completes with counts
// identical to a single-node run of the same bundle, and (b) after the
// dispatcher itself is SIGKILLed and restarted on its journal, still
// answer status and result for the pre-crash job.
func TestDispatchAcceptance(t *testing.T) {
	p := newProcTest(t)

	// Two in-memory workers, single-shard so the acceptance job runs
	// ~1.5 s — a wide window to kill one mid-job.
	w1 := p.start("worker w1", "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	w2 := p.start("worker w2", "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	dataDir := p.TempDir()
	dispArgs := []string{
		"-addr", "127.0.0.1:0",
		"-dispatch", w1.addr + "," + w2.addr,
		"-data-dir", dataDir,
		"-probe-interval", "100ms",
		"-debug-addr", "127.0.0.1:0",
	}
	disp := p.start("dispatcher", dispArgs...)

	const trace = "trace-acceptance-01"
	id := postJobTraced(p, disp, slowBundle(p, 7), trace)

	// Wait until the dispatcher reports the job running on a known
	// worker, then SIGKILL that worker.
	var victim string
	deadline := time.Now().Add(60 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			p.Fatalf("job never reached running")
		}
		st := getJSON(p, disp.url("/v1/jobs/"+id), http.StatusOK)
		if st["state"] == "running" && st["worker"] != nil && st["worker"] != "" {
			victim = st["worker"].(string)
			break
		}
		switch st["state"] {
		case "done", "failed", "canceled":
			p.Fatalf("job finished before the kill window: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victimProc, survivor := w1, w2
	if victim == w2.addr {
		victimProc, survivor = w2, w1
	}
	if err := victimProc.cmd.Process.Kill(); err != nil { // SIGKILL mid-job
		p.Fatal(err)
	}
	victimProc.cmd.Wait()

	// The dispatcher must re-forward to the survivor and finish there.
	fin := waitDone(p, disp, id)
	if fin["worker"] != survivor.addr {
		p.Fatalf("job finished on %v, want survivor %s; status %v", fin["worker"], survivor.addr, fin)
	}
	if rf, _ := fin["reforwards"].(float64); rf < 1 { // omitted when 0
		p.Fatalf("job was not re-forwarded: %v", fin)
	}
	resFleet := getJSON(p, disp.url("/v1/jobs/"+id+"/result"), http.StatusOK)

	// Tracing: the inbound X-Trace-Id is on the status document with a
	// span log, in the surviving worker's structured logs, and in the
	// dispatcher's journal file.
	if fin["trace_id"] != trace {
		p.Fatalf("status trace_id = %v, want %q", fin["trace_id"], trace)
	}
	if spans, ok := fin["spans"].([]any); !ok || len(spans) < 3 {
		p.Fatalf("status spans: %v", fin["spans"])
	}
	if !strings.Contains(survivor.logs.String(), trace) {
		p.Fatalf("trace %q absent from the surviving worker's logs", trace)
	}
	journal, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil {
		p.Fatal(err)
	}
	if !strings.Contains(string(journal), trace) {
		p.Fatalf("trace %q absent from the dispatcher journal", trace)
	}

	// /metrics: both tiers serve a valid exposition with the latency
	// histograms the PR promises.
	dispFams := scrapeMetrics(p, disp)
	for _, name := range []string{"fleet_roundtrip_seconds", "store_journal_append_seconds", "fleet_submitted_total", "build_info", "go_goroutines"} {
		if _, ok := dispFams[name]; !ok {
			p.Fatalf("dispatcher /metrics missing %s", name)
		}
	}
	workerFams := scrapeMetrics(p, survivor)
	for _, name := range []string{"jobs_queue_wait_seconds", "jobs_run_seconds", "sim_execute_seconds", "jobs_submitted_total"} {
		if _, ok := workerFams[name]; !ok {
			p.Fatalf("worker /metrics missing %s", name)
		}
	}

	// -debug-addr: the dispatcher's debug listener answers pprof and a
	// /metrics copy.
	debugRE := regexp.MustCompile(`msg="qmlserve debug listening" addr=(\S+)`)
	m := debugRE.FindStringSubmatch(disp.logs.String())
	if m == nil {
		p.Fatalf("debug listener address not logged")
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/metrics"} {
		resp, err := http.Get("http://" + m[1] + path)
		if err != nil {
			p.Fatalf("GET %s on debug listener: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			p.Fatalf("debug %s = %d (%d bytes)", path, resp.StatusCode, len(body))
		}
	}

	// Reference: the same bundle on a fresh single node produces the
	// same counts (deterministic in bundle+shots+seed) — the re-run lost
	// nothing.
	w3 := p.start("reference w3", "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	refID := postJob(p, w3, slowBundle(p, 7))
	waitDone(p, w3, refID)
	resRef := getJSON(p, w3.url("/v1/jobs/"+refID+"/result"), http.StatusOK)
	if fmt.Sprint(resFleet["entries"]) != fmt.Sprint(resRef["entries"]) {
		p.Fatalf("re-forwarded counts differ from the single-node run:\n fleet %v\n ref   %v",
			resFleet["entries"], resRef["entries"])
	}

	// Fleet health surfaced the death: victim ejected, job re-forwarded.
	if n := metric(p, disp, "fleet_reforwarded_total"); n < 1 {
		p.Fatalf("fleet_reforwarded_total = %v, missed the reforward", n)
	}
	for w, want := range map[*server]float64{victimProc: 0, survivor: 1} {
		if h := metric(p, disp, "fleet_worker_healthy", obs.Label{Name: "worker", Value: w.addr}); h != want {
			p.Fatalf("fleet_worker_healthy{worker=%q} = %v, want %v", w.addr, h, want)
		}
	}

	// Dispatcher crash: SIGKILL, restart on the same journal. The
	// pre-crash job must still answer status and (proxied) result.
	if err := disp.cmd.Process.Kill(); err != nil {
		p.Fatal(err)
	}
	disp.cmd.Wait()
	disp2 := p.start("restarted dispatcher", dispArgs...)

	st := getJSON(p, disp2.url("/v1/jobs/"+id), http.StatusOK)
	if st["state"] != "done" || st["worker"] != survivor.addr {
		p.Fatalf("recovered status: %v", st)
	}
	resAgain := getJSON(p, disp2.url("/v1/jobs/"+id+"/result"), http.StatusOK)
	if fmt.Sprint(resAgain["entries"]) != fmt.Sprint(resFleet["entries"]) {
		p.Fatalf("result changed across dispatcher restart:\n before %v\n after  %v",
			resFleet["entries"], resAgain["entries"])
	}
	list := getJSON(p, disp2.url("/v1/jobs?state=done"), http.StatusOK)
	if list["count"].(float64) < 1 {
		p.Fatalf("history after restart: %v", list)
	}
	if n := metric(p, disp2, "fleet_recovered_total"); n < 1 {
		p.Fatalf("restart replayed nothing: fleet_recovered_total = %v", n)
	}

	// Graceful exit: SIGTERM drains and exits 0, even with a client parked
	// on a long-poll for a job still running on the surviving worker.
	termWithParkedWait(p, disp2)
}
