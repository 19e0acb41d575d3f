package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
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
func slowBundle(t *testing.T, seed uint64) []byte {
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

// startProc launches one qmlserve process (worker or dispatcher mode,
// per args) and waits for its listen address.
func startProc(t *testing.T, bin string, args ...string) *server {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: cmd, logs: &logBuffer{}}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.logs.WriteLine(line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-addrc:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("qmlserve did not report its address; logs:\n%s", s.logs)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return s
}

func postJob(t *testing.T, s *server, raw []byte) string {
	return postJobTraced(t, s, raw, "")
}

// postJobTraced submits with an optional X-Trace-Id and checks the
// accepted trace echoes on the 202 header.
func postJobTraced(t *testing.T, s *server, raw []byte, trace string) string {
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
func scrapeMetrics(t *testing.T, s *server) map[string]obs.Family {
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

// TestDispatchAcceptance is the PR acceptance test at the process level:
// a dispatcher qmlserve fronting two in-memory worker qmlserves must
// (a) route a job to a worker and, when that worker is SIGKILLed
// mid-run, re-forward it to the survivor where it completes with counts
// identical to a single-node run of the same bundle, and (b) after the
// dispatcher itself is SIGKILLed and restarted on its journal, still
// answer status and result for the pre-crash job.
func TestDispatchAcceptance(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH; cannot build the server binary")
	}
	bin := filepath.Join(t.TempDir(), "qmlserve")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building qmlserve: %v\n%s", err, out)
	}

	// Two in-memory workers, single-shard so the acceptance job runs
	// ~1.5 s — a wide window to kill one mid-job.
	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	w2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	dataDir := t.TempDir()
	dispArgs := []string{
		"-addr", "127.0.0.1:0",
		"-dispatch", w1.addr + "," + w2.addr,
		"-data-dir", dataDir,
		"-probe-interval", "100ms",
		"-debug-addr", "127.0.0.1:0",
	}
	disp := startProc(t, bin, dispArgs...)

	const trace = "trace-acceptance-01"
	id := postJobTraced(t, disp, slowBundle(t, 7), trace)

	// Wait until the dispatcher reports the job running on a known
	// worker, then SIGKILL that worker.
	var victim string
	deadline := time.Now().Add(60 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			t.Fatalf("job never reached running; logs:\n%s", disp.logs)
		}
		st := getJSON(t, disp.url("/v1/jobs/"+id), http.StatusOK)
		if st["state"] == "running" && st["worker"] != nil && st["worker"] != "" {
			victim = st["worker"].(string)
			break
		}
		switch st["state"] {
		case "done", "failed", "canceled":
			t.Fatalf("job finished before the kill window: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victimProc, survivor := w1, w2
	if victim == w2.addr {
		victimProc, survivor = w2, w1
	}
	if err := victimProc.cmd.Process.Kill(); err != nil { // SIGKILL mid-job
		t.Fatal(err)
	}
	victimProc.cmd.Wait()

	// The dispatcher must re-forward to the survivor and finish there.
	fin := waitDone(t, disp, id)
	if fin["worker"] != survivor.addr {
		t.Fatalf("job finished on %v, want survivor %s; status %v", fin["worker"], survivor.addr, fin)
	}
	if fin["reforwards"].(float64) < 1 {
		t.Fatalf("job was not re-forwarded: %v", fin)
	}
	resFleet := getJSON(t, disp.url("/v1/jobs/"+id+"/result"), http.StatusOK)

	// Tracing: the inbound X-Trace-Id is on the status document with a
	// span log, in the surviving worker's structured logs, and in the
	// dispatcher's journal file.
	if fin["trace_id"] != trace {
		t.Fatalf("status trace_id = %v, want %q", fin["trace_id"], trace)
	}
	if spans, ok := fin["spans"].([]any); !ok || len(spans) < 3 {
		t.Fatalf("status spans: %v", fin["spans"])
	}
	if !strings.Contains(survivor.logs.String(), trace) {
		t.Fatalf("trace %q absent from the surviving worker's logs:\n%s", trace, survivor.logs)
	}
	journal, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(journal), trace) {
		t.Fatalf("trace %q absent from the dispatcher journal", trace)
	}

	// /metrics: both tiers serve a valid exposition with the latency
	// histograms the PR promises.
	dispFams := scrapeMetrics(t, disp)
	for _, name := range []string{"fleet_roundtrip_seconds", "store_journal_append_seconds", "fleet_submitted_total", "build_info", "go_goroutines"} {
		if _, ok := dispFams[name]; !ok {
			t.Fatalf("dispatcher /metrics missing %s", name)
		}
	}
	workerFams := scrapeMetrics(t, survivor)
	for _, name := range []string{"jobs_queue_wait_seconds", "jobs_run_seconds", "sim_execute_seconds", "jobs_submitted_total"} {
		if _, ok := workerFams[name]; !ok {
			t.Fatalf("worker /metrics missing %s", name)
		}
	}

	// -debug-addr: the dispatcher's debug listener answers pprof and a
	// /metrics copy.
	debugRE := regexp.MustCompile(`msg="qmlserve debug listening" addr=(\S+)`)
	m := debugRE.FindStringSubmatch(disp.logs.String())
	if m == nil {
		t.Fatalf("debug listener address not logged:\n%s", disp.logs)
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/metrics"} {
		resp, err := http.Get("http://" + m[1] + path)
		if err != nil {
			t.Fatalf("GET %s on debug listener: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("debug %s = %d (%d bytes)", path, resp.StatusCode, len(body))
		}
	}

	// Reference: the same bundle on a fresh single node produces the
	// same counts (deterministic in bundle+shots+seed) — the re-run lost
	// nothing.
	w3 := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	refID := postJob(t, w3, slowBundle(t, 7))
	waitDone(t, w3, refID)
	resRef := getJSON(t, w3.url("/v1/jobs/"+refID+"/result"), http.StatusOK)
	if fmt.Sprint(resFleet["entries"]) != fmt.Sprint(resRef["entries"]) {
		t.Fatalf("re-forwarded counts differ from the single-node run:\n fleet %v\n ref   %v",
			resFleet["entries"], resRef["entries"])
	}

	// Fleet health surfaced the death: one worker ejected.
	stats := getJSON(t, disp.url("/v1/stats"), http.StatusOK)
	dstats := stats["dispatcher"].(map[string]any)
	if dstats["reforwarded"].(float64) < 1 {
		t.Fatalf("dispatcher stats missed the reforward: %v", dstats)
	}

	// Dispatcher crash: SIGKILL, restart on the same journal. The
	// pre-crash job must still answer status and (proxied) result.
	if err := disp.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	disp.cmd.Wait()
	disp2 := startProc(t, bin, dispArgs...)

	st := getJSON(t, disp2.url("/v1/jobs/"+id), http.StatusOK)
	if st["state"] != "done" || st["worker"] != survivor.addr {
		t.Fatalf("recovered status: %v", st)
	}
	resAgain := getJSON(t, disp2.url("/v1/jobs/"+id+"/result"), http.StatusOK)
	if fmt.Sprint(resAgain["entries"]) != fmt.Sprint(resFleet["entries"]) {
		t.Fatalf("result changed across dispatcher restart:\n before %v\n after  %v",
			resFleet["entries"], resAgain["entries"])
	}
	list := getJSON(t, disp2.url("/v1/jobs?state=done"), http.StatusOK)
	if list["count"].(float64) < 1 {
		t.Fatalf("history after restart: %v", list)
	}
	stats2 := getJSON(t, disp2.url("/v1/stats"), http.StatusOK)
	if stats2["dispatcher"].(map[string]any)["recovered"].(float64) < 1 {
		t.Fatalf("restart replayed nothing: %v", stats2)
	}

	// Graceful exit: SIGTERM drains and exits 0, even with a client parked
	// on a long-poll for a job still running on the surviving worker.
	termWithParkedWait(t, disp2)
}
