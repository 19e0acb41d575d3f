package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/result"
)

// profiledFake is the injectable engine with profiling support: asked
// for a profile, it attaches a recognizable kernel table under
// Meta["profile"], the way the gate engine attaches sim.Profile.
type profiledFake struct {
	fakeBackend
}

func (f *profiledFake) Execute(b *bundle.Bundle, o backend.ExecOptions) (*result.Result, error) {
	res, err := f.fakeBackend.Execute(b, o)
	if err != nil || !o.Profile {
		return res, err
	}
	if res.Meta == nil {
		res.Meta = map[string]any{}
	}
	res.Meta["profile"] = map[string]any{
		"shards":   1,
		"total_ns": 12345,
		"kernels": []map[string]any{{
			"index": 0, "kind": "gate1q", "support": 1, "ns": 12345,
			"shard_min_ns": 12345, "shard_max_ns": 12345, "imbalance": 1.0,
		}},
	}
	return res, nil
}

func registerProfiledFake(t *testing.T, name string) *profiledFake {
	t.Helper()
	f := &profiledFake{fakeBackend: fakeBackend{name: name}}
	backend.Register(name, func() backend.Backend { return f })
	t.Cleanup(func() { backend.Unregister(name) })
	return f
}

// checkProfileDoc decodes a proxied profile document and verifies the
// kernel table the fake engine attached survived the hop.
func checkProfileDoc(t *testing.T, raw json.RawMessage) {
	t.Helper()
	var doc struct {
		TotalNs int64 `json:"total_ns"`
		Kernels []struct {
			Kind string `json:"kind"`
			Ns   int64  `json:"ns"`
		} `json:"kernels"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("profile is not a kernel table: %v (%s)", err, raw)
	}
	if doc.TotalNs != 12345 || len(doc.Kernels) != 1 || doc.Kernels[0].Kind != "gate1q" {
		t.Fatalf("profile lost content through the dispatcher: %s", raw)
	}
}

// TestProfileProxiedThroughDispatcher: a profiled submission forwarded
// to a worker comes back with the kernel table in the dispatcher's
// status document and in the proxied result meta, while an unprofiled
// job stays clean.
func TestProfileProxiedThroughDispatcher(t *testing.T) {
	registerProfiledFake(t, "fake.fleet_profile")
	w1, w2 := startWorker(t, 2), startWorker(t, 2)
	d := newDispatcher(t, fastOpts(w1, w2))

	st, err := d.Submit(fleetBundle(t, "fake.fleet_profile", 3), jobs.SubmitOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := d.Wait(st.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("profiled job: %+v %v", fin, err)
	}
	if len(fin.Profile) == 0 {
		t.Fatal("dispatcher status lost the worker's profile")
	}
	checkProfileDoc(t, fin.Profile)

	body, err := resultJSON(d, st.ID)
	if err != nil || !bytes.Contains(body, []byte(`"profile"`)) {
		t.Fatalf("proxied result lost the profile: %v %s", err, body)
	}

	// An unprofiled job (different key) carries no profile document.
	plain, err := d.Submit(fleetBundle(t, "fake.fleet_profile", 4), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fin, err = d.Wait(plain.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("unprofiled job: %+v %v", fin, err)
	}
	if len(fin.Profile) != 0 {
		t.Fatalf("unprofiled job grew a profile: %s", fin.Profile)
	}
}

// TestProfiledSweepScattered: a profiled sweep POSTed to the dispatcher
// front with ?profile=true scatters across both workers, and the
// terminal status carries the merged per-kind profile aggregate, full
// progress, and the per-range assignment table.
func TestProfiledSweepScattered(t *testing.T) {
	w1, w2 := startWorker(t, 2), startWorker(t, 2)
	d := newDispatcher(t, fastOpts(w1, w2))
	front := httptest.NewServer(NewHandler(d))
	defer front.Close()

	const n = 8
	raw, err := sweepFleetBundle(t, "gate.statevector", sweepGrid(n)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/sweeps?profile=true", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit body: %v (%s)", err, body)
	}

	resp, err = http.Get(front.URL + "/v1/jobs/" + sub.ID + "?wait=60s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		State    string  `json:"state"`
		Progress float64 `json:"progress"`
		Ranges   []struct {
			From   int    `json:"from"`
			To     int    `json:"to"`
			State  string `json:"state"`
			Worker string `json:"worker"`
		} `json:"ranges"`
		Profile *struct {
			Points         int `json:"points"`
			PointsProfiled int `json:"points_profiled"`
			TotalNs        int `json:"total_ns"`
			Kinds          []struct {
				Kind    string `json:"kind"`
				Kernels int    `json:"kernels"`
				Ns      int64  `json:"ns"`
			} `json:"kinds"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status: %v (%s)", err, body)
	}
	if st.State != "done" || st.Progress != 1 {
		t.Fatalf("status: %+v", st)
	}
	if len(st.Ranges) < 2 {
		t.Fatalf("status shows %d ranges, want the scatter's >= 2", len(st.Ranges))
	}
	covered := 0
	for _, r := range st.Ranges {
		if r.State != "done" || r.Worker == "" {
			t.Fatalf("range [%d,%d) not accounted: %+v", r.From, r.To, r)
		}
		covered += r.To - r.From
	}
	if covered != n {
		t.Fatalf("ranges cover %d points, want %d", covered, n)
	}
	if st.Profile == nil || st.Profile.Points != n || st.Profile.PointsProfiled != n {
		t.Fatalf("merged profile coverage: %+v", st.Profile)
	}
	if st.Profile.TotalNs <= 0 || len(st.Profile.Kinds) == 0 || st.Profile.Kinds[0].Kernels <= 0 {
		t.Fatalf("merged profile content: %+v", st.Profile)
	}
}

// TestProfileSurvivesReforward: the profile flag rides the re-forward
// after the owning worker dies mid-run, so the surviving worker's
// execution is profiled too and the table lands in the final status.
func TestProfileSurvivesReforward(t *testing.T) {
	fake := registerProfiledFake(t, "fake.fleet_profile_reforward")
	fake.block = make(chan struct{})
	fake.ran = make(chan struct{}, 8)
	w1, w2 := startWorker(t, 1), startWorker(t, 1)
	d := newDispatcher(t, fastOpts(w1, w2))

	st, err := d.Submit(fleetBundle(t, "fake.fleet_profile_reforward", 7), jobs.SubmitOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran // executing on some worker
	running := waitState(t, d, st.ID, jobs.StateRunning)
	victim, survivor := w1, w2
	if running.Worker == w2.srv.URL {
		victim, survivor = w2, w1
	}
	victim.kill()

	<-fake.ran // second execution started on the survivor
	close(fake.block)
	fin, err := d.Wait(st.ID)
	if err != nil || fin.State != jobs.StateDone {
		t.Fatalf("after reforward: %+v %v", fin, err)
	}
	if fin.Worker != survivor.srv.URL || fin.Reforwards != 1 {
		t.Fatalf("reforward did not happen: %+v", fin)
	}
	if len(fin.Profile) == 0 {
		t.Fatal("profile lost across the re-forward")
	}
	checkProfileDoc(t, fin.Profile)
	body, err := resultJSON(d, st.ID)
	if err != nil || !bytes.Contains(body, []byte(`"profile"`)) {
		t.Fatalf("result after reforward lost the profile: %v %s", err, body)
	}
}
