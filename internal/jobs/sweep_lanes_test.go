package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
	"repro/internal/result"
	rt "repro/internal/runtime"
	"repro/internal/sim"
)

// laneSweepBundle builds a symbolic one-layer QAOA sweep template on
// qubits qubits for the given engine.
func laneSweepBundle(t testing.TB, engine string, qubits int, points [][]float64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", qubits)
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(qubits), []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxdesc.NewGate(engine, 256, 11)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// spanNote returns the note of the job's first span of the given stage.
func spanNote(st Status, stage string) string {
	for _, s := range st.Spans {
		if s.Stage == stage {
			return s.Note
		}
	}
	return ""
}

func TestSweepLanesSplit(t *testing.T) {
	for _, c := range []struct{ grant, points, qubits, lanes, shards int }{
		{1, 32, 14, 1, 1},
		{2, 32, 14, 2, 1},
		{4, 32, 14, 4, 1},
		{4, 1, 14, 1, 4},
		{4, 2, 14, 2, 2},
		{8, 3, 14, 3, 2},
		{4, 32, sim.MaxQubits, 1, 4},     // one resident state at the admission limit
		{4, 32, sim.MaxQubits - 1, 2, 2}, // two half-size states
		{4, 32, sim.MaxQubits + 3, 1, 4},
	} {
		lanes, shards := sweepLanes(c.grant, c.points, c.qubits)
		if lanes != c.lanes || shards != c.shards {
			t.Errorf("sweepLanes(%d, %d, %d) = %d×%d, want %d×%d", c.grant, c.points, c.qubits, lanes, shards, c.lanes, c.shards)
		}
		if lanes*shards > c.grant {
			t.Errorf("sweepLanes(%d, %d, %d) spends %d cores", c.grant, c.points, c.qubits, lanes*shards)
		}
	}
}

// TestSweepLanesParity is the lane contract: whatever the grant, every
// point's entries equal a standalone submission of that point, the
// template compiles once (plus one concrete compile per degenerate
// point), the status reports the grant and the spans the split.
func TestSweepLanesParity(t *testing.T) {
	points := [][]float64{{0, 0}} // degenerate: served by the concrete path
	for i := 0; i < 11; i++ {
		points = append(points, []float64{0.2 + 0.17*float64(i), 1.9 - 0.23*float64(i)})
	}
	b := laneSweepBundle(t, "gate.statevector", 6, points)
	want := make([]*result.Result, len(points))
	for i, pt := range points {
		cb, err := b.BindPoint(pt)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = rt.Submit(cb, rt.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, grant := range []int{1, 2, 4} {
		p := NewPool(Options{Workers: 2, MaxShards: grant})
		before := sim.CompileCount()
		id, err := submitSweep(p, laneSweepBundle(t, "gate.statevector", 6, points))
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("grant %d: sweep %s (%s)", grant, st.State, st.Error)
		}
		if delta := sim.CompileCount() - before; delta != 2 {
			t.Errorf("grant %d: %d compiles, want the template and the one degenerate point", grant, delta)
		}
		if st.Shards != grant || st.PointsDone != len(points) {
			t.Errorf("grant %d: status shards=%d points_done=%d", grant, st.Shards, st.PointsDone)
		}
		split := fmt.Sprintf("lanes=%d shards=1", grant)
		if note := spanNote(st, "started"); !strings.HasSuffix(note, split) {
			t.Errorf("grant %d: started span %q, want suffix %q", grant, note, split)
		}
		if note := spanNote(st, "executed"); !strings.HasSuffix(note, split) {
			t.Errorf("grant %d: executed span %q, want suffix %q", grant, note, split)
		}
		got, err := p.SweepResult(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			if err := sweepEntriesEqual(got[i], want[i]); err != nil {
				t.Errorf("grant %d point %d: %v", grant, i, err)
			}
			if got[i].Meta["intent_fingerprint"] != want[i].Meta["intent_fingerprint"] {
				t.Errorf("grant %d point %d: fingerprint differs", grant, i)
			}
		}
		p.Close()
	}
}

// TestSweepDuplicatePointsExecuteOnce submits a grid that repeats a
// point: the two indices share a cache key, so one execution serves both.
// The repeated point is the degenerate one, whose every execution is a
// concrete compile, so the compile counter sees a second run.
func TestSweepDuplicatePointsExecuteOnce(t *testing.T) {
	points := [][]float64{{0.4, 1.1}, {0, 0}, {0.9, 0.3}, {0, 0}}
	p := NewPool(Options{Workers: 1, MaxShards: 4})
	defer p.Close()
	before := sim.CompileCount()
	id, err := submitSweep(p, laneSweepBundle(t, "gate.statevector", 6, points))
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.PointsDone != len(points) {
		t.Fatalf("sweep %s, %d/%d points (%s)", st.State, st.PointsDone, len(points), st.Error)
	}
	if delta := sim.CompileCount() - before; delta != 2 {
		t.Errorf("%d compiles, want 2: the template and ONE run of the repeated degenerate point", delta)
	}
	if hits := p.met.cacheHits.Value(); hits != 1 {
		t.Errorf("jobs_cache_hits_total = %d, want 1 (the repeated point's second index)", hits)
	}
	if note := spanNote(st, "executed"); !strings.HasPrefix(note, "points=3 cached=1 ") {
		t.Errorf("executed span %q, want 3 executed and 1 served", note)
	}
	res, err := p.SweepResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := sweepEntriesEqual(res[1], res[3]); err != nil {
		t.Errorf("repeated point's two indices differ: %v", err)
	}
}

// TestSweepProgressUnderLanes follows a four-lane sweep by revision:
// points_done never goes back, and the revision moves exactly once per
// point between the running and the terminal transition.
func TestSweepProgressUnderLanes(t *testing.T) {
	registerFake(t, "fake.lane_progress", &fakeBackend{})
	const n = 48
	p := NewPool(Options{Workers: 1, MaxShards: 4, CacheSize: -1})
	defer p.Close()
	sub, err := p.SubmitSweep(laneSweepBundle(t, "fake.lane_progress", 4, distinctPoints(n)), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rev, done := sub.Rev, 0
	for {
		st, err := p.WaitTimeout(context.Background(), sub.ID, 10*time.Second, rev)
		if err != nil {
			t.Fatal(err)
		}
		if st.PointsDone < done {
			t.Fatalf("points_done went from %d to %d", done, st.PointsDone)
		}
		if st.Rev < rev {
			t.Fatalf("rev went from %d to %d", rev, st.Rev)
		}
		rev, done = st.Rev, st.PointsDone
		if st.State.Terminal() {
			if st.State != StateDone || done != n {
				t.Fatalf("sweep %s with %d/%d points", st.State, done, n)
			}
			break
		}
	}
	// queued → running, n points, terminal.
	if want := sub.Rev + 1 + n + 1; rev != want {
		t.Errorf("final rev %d, want %d: one bump per point", rev, want)
	}
}

func distinctPoints(n int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{0.1 + 0.01*float64(i), 0.2}
	}
	return points
}

// failNth is a backend whose nth call fails; the others succeed.
type failNth struct {
	fakeBackend
	calls atomic.Int64
	nth   int64
}

func (f *failNth) Prepare(_ *bundle.Bundle, o backend.ExecOptions) (backend.Prepared, error) {
	return backend.PerPoint(f.Execute, o), nil
}

func (f *failNth) Execute(b *bundle.Bundle, o backend.ExecOptions) (*result.Result, error) {
	if f.calls.Add(1) == f.nth {
		return nil, fmt.Errorf("%s: injected failure", f.name)
	}
	return f.fakeBackend.Execute(b, o)
}

// TestSweepPointFailureStopsLanes fails one point of a four-lane sweep:
// the other lanes stop after the point they hold, and the job fails once,
// with one terminal journal event.
func TestSweepPointFailureStopsLanes(t *testing.T) {
	const n, lanes, nth = 64, 4, 3
	f := &failNth{nth: nth}
	f.name, f.execs = "fake.lane_fail", &atomic.Int64{}
	backend.Register(f.name, func() backend.Backend { return f })
	t.Cleanup(func() { backend.Unregister(f.name) })
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Options{Workers: 1, MaxShards: lanes, Store: st})
	id, err := submitSweep(p, laneSweepBundle(t, f.name, 4, distinctPoints(n)))
	if err != nil {
		t.Fatal(err)
	}
	stat, err := p.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if stat.State != StateFailed || !strings.Contains(stat.Error, "injected failure") {
		t.Fatalf("sweep %s (%q), want failed by the injected error", stat.State, stat.Error)
	}
	if calls := f.calls.Load(); calls >= nth+lanes {
		t.Errorf("%d points started though the %dth failed: the other %d lanes did not stop", calls, nth, lanes-1)
	}
	if failed := p.met.failed.Value(); failed != 1 {
		t.Errorf("jobs_failed_total = %d, want 1", failed)
	}
	p.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	terminal := 0
	sc := bufio.NewScanner(journal)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev store.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Job == id && (ev.T == store.EvFailed || ev.T == store.EvDone) {
			terminal++
		}
	}
	if terminal != 1 {
		t.Errorf("%d terminal journal events for the sweep, want 1", terminal)
	}
}

// TestSweepLanesGoroutineBound parks every lane of a sweep inside its
// engine and counts goroutines: a grant of G is G goroutines at work —
// the worker among them — never lanes × shards on top of each other, and
// none is left once the sweep is done. The same bound holds for the gate
// engine, sampled while a 14-qubit grid runs.
func TestSweepLanesGoroutineBound(t *testing.T) {
	const grant = 4
	block := make(chan struct{})
	ran := make(chan struct{}, grant)
	registerFake(t, "fake.lane_bound", &fakeBackend{block: block, ran: ran})
	p := NewPool(Options{Workers: 1, MaxShards: grant, CacheSize: -1})
	defer p.Close()
	baseline := runtime.NumGoroutine()

	id, err := submitSweep(p, laneSweepBundle(t, "fake.lane_bound", 4, distinctPoints(3*grant)))
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < grant; l++ {
		<-ran // a lane is inside Execute
	}
	if n := runtime.NumGoroutine(); n > baseline+grant {
		t.Errorf("%d goroutines with %d lanes parked, baseline %d", n, grant, baseline)
	}
	go func() {
		for range ran { // the remaining points' signals
		}
	}()
	close(block)
	if st, err := p.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("sweep: %v %v", st.State, err)
	}
	close(ran)
	settle(t, baseline)

	var high atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
				high.Store(max(high.Load(), int64(runtime.NumGoroutine())))
				runtime.Gosched()
			}
		}
	}()
	id, err = submitSweep(p, laneSweepBundle(t, "gate.statevector", 14, distinctPoints(16)))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := p.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("gate sweep: %v %v", st.State, err)
	}
	close(stop)
	<-sampled
	// The sampler is one goroutine more than the baseline.
	if h := high.Load(); h > int64(baseline+1+grant) {
		t.Errorf("goroutine high-water %d during a gate sweep at grant %d, baseline %d", h, grant, baseline+1)
	}
	settle(t, baseline)
}

// settle waits for exiting goroutines to be gone: a lane's last act is
// wg.Done, which the worker can observe before the lane has returned.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestSweepBesideRunningJobGetsOneLane starts a sweep while another job
// runs: its grant is one core, so it runs on one lane.
func TestSweepBesideRunningJobGetsOneLane(t *testing.T) {
	block := make(chan struct{})
	ran := make(chan struct{}, 1)
	registerFake(t, "fake.lane_neighbor", &fakeBackend{block: block, ran: ran})
	p := NewPool(Options{Workers: 2, MaxShards: 4})
	defer p.Close()
	neighbor, err := submit(p, bundleFor(t, "fake.lane_neighbor", 1))
	if err != nil {
		t.Fatal(err)
	}
	<-ran // running, parked
	id, err := submitSweep(p, laneSweepBundle(t, "gate.statevector", 6, distinctPoints(8)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	close(block)
	if _, err := p.Wait(neighbor); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Shards != 1 {
		t.Fatalf("sweep %s with shards=%d, want done at 1", st.State, st.Shards)
	}
	if note := spanNote(st, "executed"); !strings.HasSuffix(note, "lanes=1 shards=1") {
		t.Errorf("executed span %q, want one lane", note)
	}
}

// BenchmarkSweepLanes14 runs a 32-point 14-qubit grid through a Pool with
// a store at a grant of one core and of all of them: the first is the
// serial sweep, the second the lanes.
func BenchmarkSweepLanes14(b *testing.B) {
	for _, grant := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("grant%d", grant), func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{Sync: store.SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			// No result cache and a fresh grid per iteration: every point
			// executes.
			p := NewPool(Options{Workers: 1, MaxShards: grant, CacheSize: -1, Store: st})
			defer p.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points := make([][]float64, 32)
				for k := range points {
					points[k] = []float64{0.11 + 0.05*float64(k) + 1e-3*float64(i), 1.7 - 0.04*float64(k)}
				}
				id, err := submitSweep(p, laneSweepBundle(b, "gate.statevector", 14, points))
				if err != nil {
					b.Fatal(err)
				}
				if st, err := p.Wait(id); err != nil || st.State != StateDone {
					b.Fatalf("sweep: %v %v", st.State, err)
				}
			}
		})
	}
}
