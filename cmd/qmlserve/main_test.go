package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
	"repro/internal/qop"
)

// testBundle builds a small 4-qubit QAOA bundle for the statevector
// engine; identical (intent, samples, seed) means identical cache key and
// therefore identical sampled counts.
func testBundle(t testing.TB, seed uint64) []byte {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.39}, []float64{1.17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate("gate.statevector", 256, seed))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// cacheKeyOf computes the content address the pool will derive for a
// bundle's raw JSON, so injected journal records carry the true key.
func cacheKeyOf(t testing.TB, raw []byte) string {
	t.Helper()
	b, err := bundle.FromJSON(raw, qop.ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := jobs.CacheKey(b)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// logBuffer is a race-safe line sink (the reader goroutine appends while
// failure paths read).
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) WriteLine(s string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.WriteString(s + "\n")
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// server wraps one qmlserve process life.
type server struct {
	name string
	cmd  *exec.Cmd
	addr string
	logs *logBuffer
}

// procTest is one process-level test of the qmlserve binary: it builds
// the binary and starts processes from it. Its Fatal, Fatalf, Error and
// Errorf log what every process it started has logged so far, then the
// failure message, so the message is the last thing the failure prints
// and a kept output tail holds it. Helpers take it as a testing.TB, so
// their failures go the same way.
type procTest struct {
	*testing.T
	bin   string
	procs []*server
}

// newProcTest builds qmlserve into a temporary directory, or skips t
// without a go toolchain.
func newProcTest(t *testing.T) *procTest {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH; cannot build the server binary")
	}
	p := &procTest{T: t, bin: filepath.Join(t.TempDir(), "qmlserve")}
	if out, err := exec.Command(goBin, "build", "-o", p.bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building qmlserve: %v\n%s", err, out)
	}
	return p
}

func (p *procTest) printLogs() {
	p.Helper()
	for _, s := range p.procs {
		p.Logf("%s (%s) logs:\n%s", s.name, s.addr, s.logs)
	}
}

func (p *procTest) Fatal(args ...any) {
	p.Helper()
	p.printLogs()
	p.T.Fatal(args...)
}

func (p *procTest) Fatalf(format string, args ...any) {
	p.Helper()
	p.printLogs()
	p.T.Fatalf(format, args...)
}

func (p *procTest) Error(args ...any) {
	p.Helper()
	p.printLogs()
	p.T.Error(args...)
}

func (p *procTest) Errorf(format string, args ...any) {
	p.Helper()
	p.printLogs()
	p.T.Errorf(format, args...)
}

// listenRE matches the slog text line the server emits once bound:
//
//	time=... level=INFO msg="qmlserve listening" addr=127.0.0.1:43210 mode=worker ...
var listenRE = regexp.MustCompile(`msg="qmlserve listening" addr=(\S+)`)

// start launches one qmlserve process (worker or dispatcher mode, per
// args) under name and waits for its listen address. The process is
// killed when the test ends, if it is still running.
func (p *procTest) start(name string, args ...string) *server {
	p.Helper()
	cmd := exec.Command(p.bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		p.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		p.Fatal(err)
	}
	s := &server{name: name, cmd: cmd, logs: &logBuffer{}}
	p.procs = append(p.procs, s)
	p.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
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
		p.Fatalf("%s did not report its address", name)
	}
	return s
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

func getJSON(t testing.TB, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d (body %s)", url, resp.StatusCode, wantCode, raw)
	}
	out := map[string]any{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("GET %s: %v (body %s)", url, err, raw)
	}
	return out
}

func waitDone(t testing.TB, s *server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getJSON(t, s.url("/v1/jobs/"+id), http.StatusOK)
		switch st["state"] {
		case "done":
			return st
		case "failed", "canceled":
			t.Fatalf("job %s reached %v: %v", id, st["state"], st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestRestartAcceptance is the PR acceptance test at the process level: a
// qmlserve started with -data-dir and killed hard after accepting jobs
// must, on restart, (a) serve the terminal jobs' statuses and results
// from disk, (b) requeue and finish the jobs that were queued or running
// at crash time, with sampled counts identical to the pre-crash cache
// key's semantics (same bundle+shots+seed ⇒ same counts), and (c)
// tolerate the torn final journal line the crash left behind.
func TestRestartAcceptance(t *testing.T) {
	p := newProcTest(t)

	// A stray argument prints the flag set's usage, every flag in it, and
	// exits 2.
	var usage bytes.Buffer
	stray := exec.Command(p.bin, "stray")
	stray.Stderr = &usage
	if err := stray.Run(); stray.ProcessState == nil || stray.ProcessState.ExitCode() != 2 {
		p.Fatalf("qmlserve stray: %v, want exit code 2", err)
	}
	for _, f := range []string{"addr", "workers", "queue", "cache", "max-shards", "data-dir", "fsync", "dispatch", "probe-interval", "log-format", "debug-addr"} {
		if !strings.Contains(usage.String(), "  -"+f+" ") {
			p.Errorf("usage does not name -%s:\n%s", f, usage.String())
		}
	}
	dataDir := p.TempDir()

	// Life 1: accept and finish one job, then die without warning.
	s1 := p.start("first life", "-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", dataDir)
	resp, err := http.Post(s1.url("/v1/jobs"), "application/json", bytes.NewReader(testBundle(p, 42)))
	if err != nil {
		p.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || sub.ID == "" {
		p.Fatalf("submit: %v (%+v)", err, sub)
	}
	resp.Body.Close()
	waitDone(p, s1, sub.ID)
	res1 := getJSON(p, s1.url("/v1/jobs/"+sub.ID+"/result"), http.StatusOK)
	if err := s1.cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		p.Fatal(err)
	}
	s1.cmd.Wait()

	// While the server is down, plant the crash image the acceptance
	// criterion describes: two accepted-but-unfinished jobs — one that
	// was queued (identical to the finished job: same cache key) and one
	// that was mid-run (a different seed, so it must actually execute) —
	// plus a torn final line from the append the crash interrupted.
	st, err := store.Open(dataDir, store.Options{})
	if err != nil {
		p.Fatal(err)
	}
	now := time.Now()
	twin, other := testBundle(p, 42), testBundle(p, 43)
	if err := st.Append(store.Event{T: store.EvSubmitted, Job: "job-00000002", At: now,
		Key: cacheKeyOf(p, twin), Engine: "gate.statevector", Bundle: twin}); err != nil {
		p.Fatal(err)
	}
	if err := st.Append(store.Event{T: store.EvSubmitted, Job: "job-00000003", At: now,
		Key: cacheKeyOf(p, other), Engine: "gate.statevector", Bundle: other}); err != nil {
		p.Fatal(err)
	}
	if err := st.Append(store.Event{T: store.EvStarted, Job: "job-00000003", At: now, Shards: 1}); err != nil {
		p.Fatal(err)
	}
	if err := st.Close(); err != nil {
		p.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dataDir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		p.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"done","job":"job-000`); err != nil {
		p.Fatal(err)
	}
	f.Close()

	// Life 2: recovery must serve history and re-run the interrupted work.
	s2 := p.start("second life", "-addr", "127.0.0.1:0", "-workers", "1", "-data-dir", dataDir)

	st1 := getJSON(p, s2.url("/v1/jobs/"+sub.ID), http.StatusOK)
	if st1["state"] != "done" {
		p.Fatalf("recovered terminal job: %v", st1)
	}
	res1Again := getJSON(p, s2.url("/v1/jobs/"+sub.ID+"/result"), http.StatusOK)
	if fmt.Sprint(res1Again["entries"]) != fmt.Sprint(res1["entries"]) {
		p.Fatalf("terminal result changed across restart:\n before %v\n after  %v", res1["entries"], res1Again["entries"])
	}

	waitDone(p, s2, "job-00000002")
	waitDone(p, s2, "job-00000003")
	res2 := getJSON(p, s2.url("/v1/jobs/job-00000002/result"), http.StatusOK)
	// Same bundle+shots+seed as the pre-crash job ⇒ identical counts.
	if fmt.Sprint(res2["entries"]) != fmt.Sprint(res1["entries"]) {
		p.Fatalf("requeued twin's counts differ from the pre-crash run:\n pre  %v\n post %v", res1["entries"], res2["entries"])
	}
	res3 := getJSON(p, s2.url("/v1/jobs/job-00000003/result"), http.StatusOK)
	if len(res3["entries"].([]any)) == 0 {
		p.Fatal("re-run job has no entries")
	}

	requeued, recovered := metric(p, s2, "jobs_requeued_total"), metric(p, s2, "jobs_recovered_total")
	if requeued != 2 || recovered != 3 {
		p.Fatalf("jobs_requeued_total=%v jobs_recovered_total=%v, want 2/3", requeued, recovered)
	}
	if torn := metric(p, s2, "store_journal_truncated_tail"); torn != 1 {
		p.Fatalf("torn tail not reported: store_journal_truncated_tail = %v", torn)
	}
	list := getJSON(p, s2.url("/v1/jobs?state=done"), http.StatusOK)
	if list["count"].(float64) < 3 {
		p.Fatalf("history listing: %v", list)
	}

	// Graceful path: SIGTERM drains and exits 0, flushing the journal —
	// with a client parked on a long-poll, which must not hold the drain.
	termWithParkedWait(p, s2)
}

// termWithParkedWait is the SIGTERM tail of the process tests: it submits
// a slow job, parks GET ?wait=30s on it, sends SIGTERM and requires that
// the parked poll is answered at once — with the job's current,
// unfinished status, not held until the drain finishes the job — and that
// the process exits 0 well inside its 10 s shutdown budget, without the
// "shutdown" warning that budget running out would log.
func termWithParkedWait(t testing.TB, s *server) {
	t.Helper()
	id := postJob(t, s, slowBundle(t, 99))
	// The parked poll travels over a connection the server has already
	// accepted and served: a transport of its own holding one connection,
	// which one full GET opens first. A poll on a new connection could
	// still sit in the listen backlog when SIGTERM's Shutdown closes the
	// listener, which resets it.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(s.url("/v1/jobs/" + id))
	if err != nil {
		t.Fatalf("GET before the parked poll: %v", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET before the parked poll: code=%d err=%v", resp.StatusCode, err)
	}
	type reply struct {
		code  int
		state string
		err   error
	}
	reused := make(chan bool, 1)
	wrote := make(chan struct{})
	var gotOnce, wroteOnce sync.Once
	parked := make(chan reply, 1)
	go func() {
		trace := &httptrace.ClientTrace{
			GotConn:      func(info httptrace.GotConnInfo) { gotOnce.Do(func() { reused <- info.Reused }) },
			WroteRequest: func(httptrace.WroteRequestInfo) { wroteOnce.Do(func() { close(wrote) }) },
		}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodGet, s.url("/v1/jobs/"+id+"?wait=30s"), nil)
		if err != nil {
			parked <- reply{err: err}
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			parked <- reply{err: err}
			return
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		parked <- reply{code: resp.StatusCode, state: st.State, err: err}
	}()
	select {
	case ok := <-reused:
		if !ok {
			t.Fatal("the parked poll dialed a new connection instead of reusing the served one")
		}
	case r := <-parked:
		t.Fatalf("parked poll ended before it had a connection: code=%d err=%v", r.code, r.err)
	}
	<-wrote
	// One full round trip on another connection after the poll was
	// written: the server has had the poll for longer than it takes to
	// park it.
	if st := getJSON(t, s.url("/v1/jobs/"+id), http.StatusOK); st["state"] == "done" {
		t.Fatalf("slow job finished before the signal; nothing would be parked: %v", st)
	}

	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-parked:
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("parked poll across SIGTERM: code=%d err=%v", r.code, r.err)
		}
		if r.state != "queued" && r.state != "running" {
			t.Fatalf("parked poll was held until the job was %s; the signal should have released it", r.state)
		}
	case <-time.After(8 * time.Second):
		t.Fatalf("parked poll still unanswered 8s after SIGTERM")
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("qmlserve did not exit on SIGTERM")
	}
	if took := time.Since(start); took > 8*time.Second {
		t.Fatalf("shutdown took %v with a parked poll, want well under the 10s budget", took)
	}
	if strings.Contains(s.logs.String(), "msg=shutdown ") {
		t.Fatal("shutdown budget ran out: the log holds msg=shutdown")
	}
}
