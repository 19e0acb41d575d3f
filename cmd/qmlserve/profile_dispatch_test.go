package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/qdt"
)

// profileBundle builds a 20-qubit p=2 QAOA statevector job — big enough
// that kernel sweep time dominates the execute stage, so the kernel
// table's total must land within 10% of the execute span.
func profileBundle(t *testing.T, seed uint64) []byte {
	t.Helper()
	const n = 20
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

// profileSweepBundle builds a symbolic 16-qubit QAOA sweep over n points
// — per-point work small enough for CI, large enough to profile.
func profileSweepBundle(t *testing.T, n int) []byte {
	t.Helper()
	const nq = 16
	reg := qdt.NewIsingVars("ising_vars", "s", nq)
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(nq), []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxdesc.NewGate("gate.statevector", 256, 11)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{0.1 + 0.07*float64(i), 0.15 + 0.05*float64(i)}
	}
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: pts}
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

// TestProfiledAcceptance is the profiling acceptance test at the process
// level: a profiled 20-qubit job and a profiled 8-point sweep submitted
// through a dispatcher fronting two workers must come back with kernel
// tables on their dispatcher status documents — the job's total within
// 10% of its execute span — and the dispatcher's /debug/events flight
// recorder must have witnessed the work.
func TestProfiledAcceptance(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH; cannot build the server binary")
	}
	bin := filepath.Join(t.TempDir(), "qmlserve")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building qmlserve: %v\n%s", err, out)
	}

	w1 := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	w2 := startProc(t, bin, "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	disp := startProc(t, bin,
		"-addr", "127.0.0.1:0",
		"-dispatch", w1.addr+","+w2.addr,
		"-data-dir", t.TempDir(),
		"-probe-interval", "100ms",
		"-debug-addr", "127.0.0.1:0",
	)

	// Profiled 20q job through the dispatcher (?profile=true is the wire
	// form the dispatcher itself forwards to workers).
	resp, err := http.Post(disp.url("/v1/jobs?profile=true"), "application/json",
		bytes.NewReader(profileBundle(t, 7)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body: %v (%s)", err, body)
	}
	fin := waitDone(t, disp, sub.ID)

	prof, ok := fin["profile"].(map[string]any)
	if !ok {
		t.Fatalf("dispatcher status has no kernel table: %v", fin["profile"])
	}
	kernels, ok := prof["kernels"].([]any)
	if !ok || len(kernels) == 0 {
		t.Fatalf("kernel table empty: %v", prof)
	}
	totalNs, _ := prof["total_ns"].(float64)
	// The dispatcher's span log records its own stages; the execute span
	// lives on the owning worker's status doc. The "assigned" span note
	// names the worker and the remote job ID — follow it.
	spans, ok := fin["spans"].([]any)
	if !ok || len(spans) == 0 {
		t.Fatalf("status has no span log: %v", fin["spans"])
	}
	var workerAddr, remoteID string
	assignRE := regexp.MustCompile(`^(\S+) as (\S+)$`)
	for _, el := range spans {
		span, _ := el.(map[string]any)
		if span["stage"] == "assigned" {
			note, _ := span["note"].(string)
			if m := assignRE.FindStringSubmatch(note); m != nil {
				workerAddr, remoteID = m[1], m[2]
			}
		}
	}
	if workerAddr == "" || remoteID == "" {
		t.Fatalf("assignment not recorded in the span log: %v", fin["spans"])
	}
	wst := getJSON(t, "http://"+workerAddr+"/v1/jobs/"+remoteID, http.StatusOK)
	var execNs float64
	for _, el := range wst["spans"].([]any) {
		span, _ := el.(map[string]any)
		if span["stage"] == "execute" {
			execNs, _ = span["dur_ns"].(float64)
		}
	}
	if execNs <= 0 {
		t.Fatalf("no execute span on the worker status: %v", wst["spans"])
	}
	// The acceptance bound: kernel-time total within 10% of the execute
	// stage, observed through the dispatcher.
	if math.Abs(totalNs-execNs) > 0.10*execNs {
		t.Fatalf("kernel total %.0f ns vs execute span %.0f ns: off by more than 10%%", totalNs, execNs)
	}

	// Profiled 8-point sweep, scattered over both workers.
	resp, err = http.Post(disp.url("/v1/sweeps?profile=true"), "application/json",
		bytes.NewReader(profileSweepBundle(t, 8)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit = %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("sweep submit body: %v (%s)", err, body)
	}
	sfin := waitDone(t, disp, sub.ID)
	if sfin["progress"] != float64(1) {
		t.Fatalf("terminal sweep progress = %v", sfin["progress"])
	}
	ranges, ok := sfin["ranges"].([]any)
	if !ok || len(ranges) == 0 {
		t.Fatalf("sweep status has no range table: %v", sfin["ranges"])
	}
	for _, el := range ranges {
		r := el.(map[string]any)
		if r["state"] != "done" || r["worker"] == "" {
			t.Fatalf("unaccounted range: %v", r)
		}
	}
	sprof, ok := sfin["profile"].(map[string]any)
	if !ok {
		t.Fatalf("sweep status has no merged profile: %v", sfin["profile"])
	}
	if sprof["points"] != float64(8) || sprof["points_profiled"] != float64(8) {
		t.Fatalf("merged profile coverage: %v", sprof)
	}
	if kinds, ok := sprof["kinds"].([]any); !ok || len(kinds) == 0 {
		t.Fatalf("merged profile has no per-kind rows: %v", sprof)
	}

	// The always-on per-kind instruments are on the worker exposition.
	for _, name := range []string{"sim_kernels_total", "sim_kernel_seconds"} {
		if _, ok := scrapeMetrics(t, w1)[name]; !ok {
			t.Fatalf("worker /metrics missing %s", name)
		}
	}

	// The flight recorder on the dispatcher's debug listener has seen the
	// fleet forwards.
	debugRE := regexp.MustCompile(`msg="qmlserve debug listening" addr=(\S+)`)
	m := debugRE.FindStringSubmatch(disp.logs.String())
	if m == nil {
		t.Fatalf("debug listener address not logged:\n%s", disp.logs)
	}
	resp, err = http.Get("http://" + m[1] + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events = %d (%s)", resp.StatusCode, body)
	}
	var events struct {
		Recorded uint64 `json:"recorded"`
		Events   []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("/debug/events is not JSON: %v (%s)", err, body)
	}
	if events.Recorded == 0 || len(events.Events) == 0 {
		t.Fatal("flight recorder is empty after a dispatched fleet workload")
	}
	sawForward := false
	for _, ev := range events.Events {
		if ev.Kind == "fleet_forward" {
			sawForward = true
		}
	}
	if !sawForward {
		t.Fatalf("no fleet_forward event recorded: %s", body)
	}
}
