package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/qdt"
)

// slowSweepBundle builds a symbolic 21-qubit p=1 QAOA sweep over n
// points: each point runs ~0.4 s on one shard, so a two-worker scatter
// leaves a wide window to SIGKILL a range owner mid-sweep. Binding is
// deterministic, so the same template yields identical per-point counts
// wherever each range lands.
func slowSweepBundle(t testing.TB, n int) []byte {
	t.Helper()
	const nq = 21
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

// rangesAssigned reports whether every range in a sweep's status has been
// accepted by a worker.
func rangesAssigned(st map[string]any) bool {
	ranges, _ := st["ranges"].([]any)
	for _, el := range ranges {
		if rg, _ := el.(map[string]any); rg["remote"] == nil {
			return false
		}
	}
	return len(ranges) > 0
}

// postSweep submits a sweep bundle to a process's POST /v1/sweeps and
// returns the accepted job ID.
func postSweep(t testing.TB, s *server, raw []byte) string {
	t.Helper()
	resp, err := http.Post(s.url("/v1/sweeps"), "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit = %d (%s)", resp.StatusCode, body)
	}
	var sub struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("sweep submit body: %v (%s)", err, body)
	}
	return sub.ID
}

// sweepEntries long-polls GET /v1/sweeps/{id}?wait= until the merged
// result document lands, then returns per-point entry renderings keyed
// by global point index.
func sweepEntries(t testing.TB, s *server, id string) map[int]string {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(s.url("/v1/sweeps/" + id + "?wait=10s"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var doc struct {
				Results []struct {
					Index   int   `json:"index"`
					Entries []any `json:"entries"`
				} `json:"results"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("sweep result body: %v (%s)", err, body)
			}
			out := make(map[int]string, len(doc.Results))
			for _, pt := range doc.Results {
				out[pt.Index] = fmt.Sprint(pt.Entries)
			}
			return out
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatalf("sweep %s still pending: %s", id, body)
			}
		default:
			t.Fatalf("sweep result = %d (%s)", resp.StatusCode, body)
		}
	}
}

// TestSweepDispatchAcceptance is the sweep acceptance test at the
// process level: a dispatcher qmlserve scatters one POST /v1/sweeps
// across two worker qmlserves; when the worker owning the first point
// range is SIGKILLed mid-sweep, only its unfinished range re-forwards
// to the survivor, and the merged result set is per-point identical to
// the same sweep on a fresh single node.
func TestSweepDispatchAcceptance(t *testing.T) {
	p := newProcTest(t)

	// Any failure from here on, in this body or in a helper, prints what
	// each process logged: a rare failure is read once.
	w1 := p.start("worker w1", "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	w2 := p.start("worker w2", "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	dataDir := p.TempDir()
	disp := p.start("dispatcher",
		"-addr", "127.0.0.1:0",
		"-dispatch", w1.addr+","+w2.addr,
		"-data-dir", dataDir,
		"-probe-interval", "100ms",
	)

	const n = 8
	raw := slowSweepBundle(p, n)
	id := postSweep(p, disp, raw)

	// Scatter order follows the -dispatch flag order, so the range
	// [0,4) lands on w1. Kill w1 once the sweep is running and both
	// ranges are assigned, and before w1's range can complete (~0.8 s of
	// statevector work). The dispatcher forwards [4,8) before [0,4), so a
	// sweep can read running before w1 holds its range; a kill in that
	// gap sends [0,4) to w2 on its first forward, which is no re-forward.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			p.Fatalf("sweep never reached running with both ranges assigned")
		}
		st := getJSON(p, disp.url("/v1/jobs/"+id), http.StatusOK)
		if st["state"] == "running" && rangesAssigned(st) {
			break
		}
		switch st["state"] {
		case "done", "failed", "canceled":
			p.Fatalf("sweep finished before the kill window: %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w1.cmd.Process.Kill(); err != nil { // SIGKILL mid-sweep
		p.Fatal(err)
	}
	w1.cmd.Wait()

	// The generic job route long-polls the sweep to terminal and carries
	// the grid progress fields; the lost range must have re-forwarded.
	fin := getJSON(p, disp.url("/v1/jobs/"+id+"?wait=120s"), http.StatusOK)
	if fin["state"] != "done" {
		p.Fatalf("sweep finished %v: %v", fin["state"], fin)
	}
	if fin["sweep"] != true || fin["points"].(float64) != n || fin["points_done"].(float64) != n {
		p.Fatalf("sweep progress fields: %v", fin)
	}
	if rf, _ := fin["reforwards"].(float64); rf < 1 { // omitted when 0
		p.Fatalf("no range was re-forwarded after the worker kill: %v", fin)
	}
	merged := sweepEntries(p, disp, id)
	if len(merged) != n {
		p.Fatalf("merged %d points, want %d", len(merged), n)
	}

	// The dispatcher journaled ONE record for the whole grid: a single
	// submitted event carrying the point count, not one per point.
	journal, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil {
		p.Fatal(err)
	}
	if got := strings.Count(string(journal), `"t":"submitted"`); got != 1 {
		p.Fatalf("journal has %d submitted records, want 1", got)
	}
	if !strings.Contains(string(journal), fmt.Sprintf(`"points":%d`, n)) {
		p.Fatal("journal submit record does not carry the grid size")
	}

	// Reference: the same sweep template on a fresh single node. Bind
	// determinism means every point's counts must match the merged
	// fleet set, including the points that moved workers mid-flight.
	w3 := p.start("reference w3", "-addr", "127.0.0.1:0", "-workers", "1", "-max-shards", "1")
	refID := postSweep(p, w3, raw)
	ref := sweepEntries(p, w3, refID)
	for i := 0; i < n; i++ {
		if merged[i] == "" || merged[i] != ref[i] {
			p.Fatalf("point %d differs after the mid-sweep kill:\n fleet %s\n ref   %s", i, merged[i], ref[i])
		}
	}

	// Fleet health surfaced the death and the range move.
	if n := metric(p, disp, "fleet_sweeps_total"); n != 1 {
		p.Fatalf("fleet_sweeps_total = %v, want 1", n)
	}
	if n := metric(p, disp, "fleet_reforwarded_total"); n < 1 {
		p.Fatalf("fleet_reforwarded_total = %v, missed the range reforward", n)
	}
}
