package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/jobs/store"
	"repro/internal/result"
	rt "repro/internal/runtime"
	"repro/internal/sim"
)

// sweepGrid64 is an 8×8 (gamma, beta) grid with no degenerate angles, so
// every point stays on the parametric fast path.
func sweepGrid64() [][]float64 {
	var points [][]float64
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			points = append(points, []float64{0.1 + 0.09*float64(i), 0.15 + 0.08*float64(j)})
		}
	}
	return points
}

// sweepTestBundle builds a symbolic one-layer QAOA sweep template on four
// qubits for the statevector engine.
func sweepTestBundle(t testing.TB, points [][]float64) *bundle.Bundle {
	t.Helper()
	return laneSweepBundle(t, "gate.statevector", 4, points)
}

func sweepEntriesEqual(a, b *result.Result) error {
	if len(a.Entries) != len(b.Entries) {
		return fmt.Errorf("%d entries vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Value.Index != eb.Value.Index || ea.Count != eb.Count {
			return fmt.Errorf("entry %d: index/count (%d,%d) vs (%d,%d)",
				i, ea.Value.Index, ea.Count, eb.Value.Index, eb.Count)
		}
	}
	return nil
}

// TestSweepCompileOnce is the tentpole acceptance test: a 64-point QAOA
// sweep submitted as one job compiles its plan exactly once
// (sim.CompileCount delta), journals one record carrying all 64 per-point
// result addresses, and returns an indexed result set whose per-point
// counts are bit-identical to 64 individual concrete-angle submissions.
func TestSweepCompileOnce(t *testing.T) {
	points := sweepGrid64()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := NewPool(Options{Workers: 2, Store: st})
	defer p.Close()

	b := sweepTestBundle(t, points)
	before := sim.CompileCount()
	id, err := submitSweep(p, b)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := p.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if stat.State != StateDone {
		t.Fatalf("sweep state %s (err %q)", stat.State, stat.Error)
	}
	if delta := sim.CompileCount() - before; delta != 1 {
		t.Fatalf("sweep compiled %d times, want exactly 1", delta)
	}
	if !stat.Sweep || stat.Points != len(points) || stat.PointsDone != len(points) {
		t.Fatalf("status sweep=%v points=%d done=%d, want sweep 64/64", stat.Sweep, stat.Points, stat.PointsDone)
	}

	// One journal record for the whole grid, carrying every address.
	recs := st.Records()
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
	if recs[0].Points != len(points) || len(recs[0].Results) != len(points) {
		t.Fatalf("record points=%d results=%d, want %d/%d", recs[0].Points, len(recs[0].Results), len(points), len(points))
	}

	// Per-point bit-identity against individual concrete submissions
	// through the ordinary runtime path.
	results, err := p.SweepResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points) {
		t.Fatalf("%d results for %d points", len(results), len(points))
	}
	for i, pt := range points {
		cb, err := b.BindPoint(pt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rt.Submit(cb, rt.Options{})
		if err != nil {
			t.Fatalf("concrete point %d: %v", i, err)
		}
		if err := sweepEntriesEqual(results[i], want); err != nil {
			t.Errorf("point %d: %v", i, err)
		}
		if results[i].Meta["intent_fingerprint"] != want.Meta["intent_fingerprint"] {
			t.Errorf("point %d fingerprint differs", i)
		}
	}

	// Result() on a sweep points callers at SweepResult.
	if _, err := p.Result(id); err == nil {
		t.Fatal("Result on a sweep job should error")
	}

	// An identical single-point submission is a cache hit: the sweep's
	// per-point results share the individual jobs' content addresses.
	cb, err := b.BindPoint(points[0])
	if err != nil {
		t.Fatal(err)
	}
	cst, err := p.Submit(cb, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cst.CacheHit {
		t.Fatal("individual submission of a swept point should hit the per-point cache")
	}
}

// TestSweepResubmitCached re-submits an identical sweep and expects every
// point served from cache without execution.
func TestSweepResubmitCached(t *testing.T) {
	points := [][]float64{{0.3, 0.7}, {1.1, 0.2}, {0.8, 1.4}}
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	b := sweepTestBundle(t, points)
	id1, err := submitSweep(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(id1); err != nil {
		t.Fatal(err)
	}
	before := sim.CompileCount()
	id2, err := submitSweep(p, sweepTestBundle(t, points))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := p.Wait(id2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("resubmitted sweep state=%s cache_hit=%v, want done from cache", st2.State, st2.CacheHit)
	}
	if delta := sim.CompileCount() - before; delta != 0 {
		t.Fatalf("cached resubmission compiled %d times", delta)
	}
	r1, err := p.SweepResult(id1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.SweepResult(id2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if err := sweepEntriesEqual(r1[i], r2[i]); err != nil {
			t.Errorf("point %d: %v", i, err)
		}
	}
}

// TestSweepInFlightDuplicateCoalesces submits a sweep while an identical
// one runs: the duplicate attaches to the running sweep like any in-flight
// twin, every point executes once, and both jobs answer the same results.
func TestSweepInFlightDuplicateCoalesces(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 1)}
	registerFake(t, "fake.sweep_coalesce", fake)
	p := NewPool(Options{Workers: 1, QueueDepth: 1, MaxShards: 1})
	defer p.Close()
	points := distinctPoints(3)
	first, err := p.SubmitSweep(laneSweepBundle(t, "fake.sweep_coalesce", 4, points), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran // the first point is executing, held
	go func() {
		for range fake.ran { // the other points' signals
		}
	}()
	second, err := p.SubmitSweep(laneSweepBundle(t, "fake.sweep_coalesce", 4, points), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	close(fake.block)
	st1, err1 := p.Wait(first.ID)
	st2, err2 := p.Wait(second.ID)
	close(fake.ran)
	if err1 != nil || err2 != nil || st1.State != StateDone || st2.State != StateDone {
		t.Fatalf("sweeps: %v %+v / %v %+v", err1, st1, err2, st2)
	}
	if st1.Coalesced || !st2.Coalesced || st2.PointsDone != len(points) {
		t.Fatalf("coalesced=%v/%v points_done=%d, want only the duplicate coalesced with every point", st1.Coalesced, st2.Coalesced, st2.PointsDone)
	}
	if n := fake.execs.Load(); n != int64(len(points)) {
		t.Errorf("%d executions for %d points", n, len(points))
	}
	if m := p.met; m.coalesced.Value() != 1 || m.sweeps.Value() != 2 || m.sweepPoints.Value() != uint64(2*len(points)) {
		t.Errorf("coalesced=%d sweeps=%d sweep_points=%d", m.coalesced.Value(), m.sweeps.Value(), m.sweepPoints.Value())
	}
	r1, err1 := p.SweepResult(first.ID)
	r2, err2 := p.SweepResult(second.ID)
	if err1 != nil || err2 != nil || len(r1) != len(points) || len(r2) != len(points) {
		t.Fatalf("results: %v %d / %v %d", err1, len(r1), err2, len(r2))
	}
	for i := range r1 {
		if !reflect.DeepEqual(r1[i], r2[i]) {
			t.Errorf("point %d: the coalesced sweep's result differs", i)
		}
	}
}

// TestSweepBundleRefusedAsPlainJob posts a sweep bundle to /v1/jobs before
// and while an identical sweep runs. Both posts are refused with a 400
// naming /v1/sweeps, so no plain job runs under the template's key — the
// key the sweep holds — to answer for the grid or coalesce onto it, and
// the sweep answers one result per point.
func TestSweepBundleRefusedAsPlainJob(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 1)}
	registerFake(t, "fake.sweep_as_plain", fake)
	p := NewPool(Options{Workers: 1, QueueDepth: 4, MaxShards: 1})
	defer p.Close()
	var release sync.Once
	unblock := func() { release.Do(func() { close(fake.block) }) }
	defer unblock() // before Close, should a failed check leave a point held
	h := NewHandler(p)
	points := distinctPoints(3)
	raw, err := laneSweepBundle(t, "fake.sweep_as_plain", 4, points).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	refused := func(when string) {
		t.Helper()
		doc := doJSON(t, h, "POST", "/v1/jobs", raw, http.StatusBadRequest)
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "/v1/sweeps") {
			t.Errorf("%s: refusal %q does not name /v1/sweeps", when, msg)
		}
	}
	refused("before the sweep")
	id, _ := doJSON(t, h, "POST", "/v1/sweeps", raw, http.StatusAccepted)["id"].(string)
	<-fake.ran // the first point is executing, held
	go func() {
		for range fake.ran { // the other points' signals
		}
	}()
	refused("while the sweep runs")
	unblock()
	st, err := p.Wait(id)
	close(fake.ran)
	if err != nil || st.State != StateDone || st.CacheHit || st.Coalesced {
		t.Fatalf("sweep: %v %+v", err, st)
	}
	if res, err := p.SweepResult(id); err != nil || len(res) != len(points) {
		t.Fatalf("sweep result: %v, %d results for %d points", err, len(res), len(points))
	}
	if n := fake.execs.Load(); n != int64(len(points)) {
		t.Errorf("%d executions for %d points", n, len(points))
	}
	if submitted := p.met.submitted.Value(); submitted != 1 {
		t.Errorf("%d jobs admitted, want the sweep alone", submitted)
	}
}

// TestRecoveryFailsSweepBundleQueuedAsPlainJob replays a journal in which
// an older build queued a sweep bundle as a plain job: recovery fails the
// job instead of running it under its template's key.
func TestRecoveryFailsSweepBundleQueuedAsPlainJob(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.sweep_as_plain_journal", fake)
	dir := t.TempDir()
	b := laneSweepBundle(t, "fake.sweep_as_plain_journal", 4, distinctPoints(2))
	key, err := CacheKey(b)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	s1 := openStore(t, dir)
	const id = "job-00000001"
	if err := s1.Append(store.Event{T: store.EvSubmitted, Job: id, At: time.Now(), Key: key, Engine: fake.name, Bundle: raw}); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2 := openStore(t, dir)
	p := NewPool(Options{Workers: 1, QueueDepth: 4, Store: s2})
	defer func() { p.Close(); s2.Close() }()
	st, err := p.Status(id)
	if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "sweep block") {
		t.Fatalf("recovered: %v %+v", err, st)
	}
	if n := fake.execs.Load(); n != 0 {
		t.Errorf("%d executions", n)
	}
}

// TestSweepRecovery restarts a store-backed pool after a done sweep and
// expects the record (with per-point progress) and the full result set to
// survive, results lazy-loading from disk.
func TestSweepRecovery(t *testing.T) {
	points := [][]float64{{0.3, 0.7}, {1.1, 0.2}, {0.8, 1.4}, {0.5, 0.9}}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Options{Workers: 1, Store: st})
	b := sweepTestBundle(t, points)
	id, err := submitSweep(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(id); err != nil {
		t.Fatal(err)
	}
	want, err := p.SweepResult(id)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p2 := NewPool(Options{Workers: 1, Store: st2})
	defer p2.Close()
	stat, err := p2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if stat.State != StateDone || !stat.Sweep || stat.Points != len(points) || stat.PointsDone != len(points) {
		t.Fatalf("recovered status %+v, want done sweep %d/%d", stat, len(points), len(points))
	}
	got, err := p2.SweepResult(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if err := sweepEntriesEqual(got[i], want[i]); err != nil {
			t.Errorf("recovered point %d: %v", i, err)
		}
	}
}

// TestRecoveredSweepConcurrentReaders: a done, profiled sweep recovered
// from the journal holds only its per-point addresses; the first readers
// of its result load the files with the pool unlocked, so several may load
// at once while submissions and status polls go on. Every reader must get
// the same document — the one a restart always served, the pre-restart
// document up to the key order of the reloaded meta — and the results and
// the aggregated profile must attach exactly once: one revision bump, one
// shared result set.
func TestRecoveredSweepConcurrentReaders(t *testing.T) {
	points := distinctPoints(8)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Options{Workers: 2, Store: st})
	sub, err := p.SubmitSweep(sweepTestBundle(t, points), SubmitOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	id := sub.ID
	if st, err := p.Wait(id); err != nil || st.State != StateDone || st.Profile == nil {
		t.Fatalf("sweep: %v / %+v", err, st)
	}
	var before bytes.Buffer
	if err := p.WriteSweepResult(context.Background(), &before, id); err != nil {
		t.Fatal(err)
	}
	plain, err := submit(p, gateBundle(t, "gate.statevector", 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(plain); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p2 := NewPool(Options{Workers: 2, Store: st2})
	defer p2.Close()
	recovered, err := p2.Status(id)
	if err != nil || recovered.State != StateDone || recovered.Profile != nil {
		t.Fatalf("recovered status: %v / %+v (the profile materializes with the results)", err, recovered)
	}

	const readers = 8
	docs := make([]bytes.Buffer, readers)
	plains := make([]*result.Result, readers) // the recovered plain job's result, as each reader got it
	var reading, others sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			if err := p2.WriteSweepResult(context.Background(), &docs[r], id); err != nil {
				t.Errorf("reader %d: %v", r, err)
			}
			var err error
			if plains[r], err = p2.Result(plain); err != nil {
				t.Errorf("reader %d: plain job: %v", r, err)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		others.Add(2)
		go func() { // submissions, each a memory miss that looks on disk
			defer others.Done()
			for seed := uint64(100 * (w + 1)); ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				jid, err := submit(p2, gateBundle(t, "gate.statevector", 64, seed))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if st, err := p2.Wait(jid); err != nil || st.State != StateDone {
					t.Errorf("job %s: %v / %+v", jid, err, st)
					return
				}
			}
		}()
		go func() { // status polls of the sweep being read
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st, err := p2.Status(id); err != nil || st.State != StateDone || st.Rev > recovered.Rev+1 {
					t.Errorf("status poll: %v / rev %d (recovered at %d)", err, st.Rev, recovered.Rev)
					return
				}
			}
		}()
	}
	reading.Wait()
	close(stop)
	others.Wait()

	for r := 1; r < readers; r++ {
		if !bytes.Equal(docs[r].Bytes(), docs[0].Bytes()) {
			t.Fatalf("readers 0 and %d got different documents", r)
		}
		if plains[r] == nil || plains[r] != plains[0] {
			t.Errorf("readers 0 and %d hold different results of the recovered plain job; the first load is shared", r)
		}
	}
	after, err := p2.Status(id)
	if err != nil || after.Profile == nil || after.Rev != recovered.Rev+1 {
		t.Errorf("after the reads: err=%v profile=%s rev=%d, want the profile attached by one bump from %d", err, after.Profile, after.Rev, recovered.Rev)
	}
	r1, err1 := p2.SweepResult(id)
	r2, err2 := p2.SweepResult(id)
	if err1 != nil || err2 != nil || len(r1) != len(points) {
		t.Fatalf("SweepResult: %v / %v / %d points", err1, err2, len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("point %d: two reads hold different results; they attach once and are shared", i)
		}
	}
	var again bytes.Buffer
	if err := p2.WriteSweepResult(context.Background(), &again, id); err != nil || !bytes.Equal(again.Bytes(), docs[0].Bytes()) {
		t.Errorf("a later read differs from the first ones (err %v)", err)
	}
	// Reloaded meta is a generic map (sorted keys) where the fresh run held
	// typed values (declaration order), so across the restart the document is
	// the same JSON value, not necessarily the same bytes.
	var was, is any
	if err := json.Unmarshal(before.Bytes(), &was); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(docs[0].Bytes(), &is); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(was, is) {
		t.Errorf("the recovered sweep's document is a different JSON value from the one served before the restart\nbefore: %.400s\n after: %.400s", before.Bytes(), docs[0].Bytes())
	}
}

// TestSweepInterruptedRequeues replays a journal whose sweep never
// finished and expects the whole grid requeued as one sweep job.
func TestSweepInterruptedRequeues(t *testing.T) {
	points := [][]float64{{0.3, 0.7}, {1.1, 0.2}}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Journal a submitted sweep by hand — as if the process died before
	// the worker picked it up.
	b := sweepTestBundle(t, points)
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(b)
	if err != nil {
		t.Fatal(err)
	}
	ev := store.Event{T: store.EvSubmitted, Job: "job-00000007", At: time.Now(), Key: key, Engine: "gate.statevector", Bundle: raw, Points: len(points)}
	if err := st.Append(ev); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p := NewPool(Options{Workers: 1, Store: st2})
	defer p.Close()
	stat, err := p.Wait("job-00000007")
	if err != nil {
		t.Fatal(err)
	}
	if stat.State != StateDone || stat.PointsDone != len(points) {
		t.Fatalf("requeued sweep finished %s with %d/%d points (err %q)", stat.State, stat.PointsDone, len(points), stat.Error)
	}
	if _, err := p.SweepResult("job-00000007"); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitSweepValidation covers the submission guard rails.
func TestSubmitSweepValidation(t *testing.T) {
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	if _, err := submitSweep(p, nil); err == nil {
		t.Fatal("nil bundle accepted")
	}
	plain := gateBundle(t, "gate.statevector", 64, 1)
	if _, err := submitSweep(p, plain); err == nil {
		t.Fatal("bundle without sweep block accepted")
	}
	big := make([][]float64, MaxSweepPoints+1)
	for i := range big {
		big[i] = []float64{0.1, 0.2}
	}
	over := sweepTestBundle(t, big)
	if _, err := submitSweep(p, over); err == nil {
		t.Fatal("oversized grid accepted")
	}
}

// TestWaitTimeout pins the long-poll primitive without a revision: a short
// wait on a pending job returns its non-terminal state; a wait spanning
// completion returns the terminal state. (watch_test.go covers ?rev=.)
func TestWaitTimeout(t *testing.T) {
	block := make(chan struct{})
	ran := make(chan struct{}, 1)
	fb := &fakeBackend{block: block, ran: ran}
	registerFake(t, "fake.wait", fb)
	p := NewPool(Options{Workers: 1})
	defer p.Close()
	ctx := context.Background()
	id, err := submit(p, bundleFor(t, "fake.wait", 1))
	if err != nil {
		t.Fatal(err)
	}
	<-ran // executing and parked on block
	st, err := p.WaitTimeout(ctx, id, 20*time.Millisecond, NoRev)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() {
		t.Fatalf("blocked job reported terminal state %s", st.State)
	}
	done := make(chan Status, 1)
	go func() {
		st, _ := p.WaitTimeout(ctx, id, 10*time.Second, NoRev)
		done <- st
	}()
	close(block)
	st = <-done
	if !st.State.Terminal() {
		t.Fatalf("long-poll across completion returned %s", st.State)
	}
	if _, err := p.WaitTimeout(ctx, "job-junk", time.Millisecond, NoRev); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: %v", err)
	}
}
