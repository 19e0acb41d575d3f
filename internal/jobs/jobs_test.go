package jobs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
)

// gateBundle builds a small 4-qubit QAOA MaxCut bundle for a gate or
// pulse engine.
func gateBundle(t testing.TB, engine string, samples int, seed uint64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq, err := algolib.BuildQAOA(reg, graph.Cycle(4), []float64{0.39}, []float64{1.17})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctxdesc.NewGate(engine, samples, seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// annealBundle builds a 4-spin Ising MaxCut bundle for an anneal (or
// injected fake) engine.
func annealBundle(t testing.TB, engine string, reads int, seed uint64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	op, err := algolib.NewIsingProblem(reg, ising.FromMaxCut(graph.Cycle(4)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.New([]*qdt.DataType{reg}, qop.Sequence{op}, ctxdesc.NewAnneal(engine, reads, seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func bundleFor(t testing.TB, engine string, seed uint64) *bundle.Bundle {
	if strings.HasPrefix(engine, "anneal.") {
		return annealBundle(t, engine, 50, seed)
	}
	return gateBundle(t, engine, 256, seed)
}

// fakeBackend counts executions and returns a deterministic result
// derived from the context seed; optional block gates Execute for
// backpressure tests.
type fakeBackend struct {
	name  string
	execs *atomic.Int64
	block chan struct{}
	ran   chan struct{}
	fail  bool // Execute returns an error instead of a result
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Execute(b *bundle.Bundle, _ backend.ExecOptions) (*result.Result, error) {
	if f.ran != nil {
		f.ran <- struct{}{}
	}
	if f.block != nil {
		<-f.block
	}
	f.execs.Add(1)
	if f.fail {
		return nil, fmt.Errorf("%s: injected failure", f.name)
	}
	seed := uint64(0)
	if b.Context != nil && b.Context.Exec != nil {
		seed = b.Context.Exec.Seed
	}
	return &result.Result{
		Engine:  f.name,
		Samples: 100,
		Entries: []result.Entry{
			{Bitstring: "0101", Index: seed % 16, Count: 60},
			{Bitstring: "1010", Index: (seed + 5) % 16, Count: 40},
		},
	}, nil
}

// submit, submitWith and submitSweep are Pool.Submit and Pool.SubmitSweep
// for the tests that want only the job ID.
func submit(p *Pool, b *bundle.Bundle) (string, error) { return submitWith(p, b, SubmitOptions{}) }

func submitWith(p *Pool, b *bundle.Bundle, o SubmitOptions) (string, error) {
	st, err := p.Submit(b, o)
	return st.ID, err
}

func submitSweep(p *Pool, b *bundle.Bundle) (string, error) {
	st, err := p.SubmitSweep(b, SubmitOptions{})
	return st.ID, err
}

// registerFake installs a fake backend under a unique name and removes it
// at test end.
func registerFake(t *testing.T, name string, f *fakeBackend) {
	t.Helper()
	f.name = name
	if f.execs == nil {
		f.execs = &atomic.Int64{}
	}
	backend.Register(name, func() backend.Backend { return f })
	t.Cleanup(func() { backend.Unregister(name) })
}

// TestConcurrentSubmitPoll is the acceptance-criterion race test: 64 jobs
// across every registered engine, submitted and polled from concurrent
// goroutines under -race.
func TestConcurrentSubmitPoll(t *testing.T) {
	pool := NewPool(Options{Workers: 8, QueueDepth: 64, CacheSize: -1})
	defer pool.Close()
	engines := backend.Engines()
	if len(engines) < 5 {
		t.Fatalf("expected ≥5 registered engines, got %v", engines)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engine := engines[i%len(engines)]
			id, err := submit(pool, bundleFor(t, engine, uint64(i)))
			if err != nil {
				errs <- fmt.Errorf("submit %d (%s): %w", i, engine, err)
				return
			}
			// Poll the public surface while the job is in flight.
			for {
				st, err := pool.Status(id)
				if err != nil {
					errs <- err
					return
				}
				pool.Stats()
				if st.State.Terminal() {
					break
				}
				time.Sleep(time.Millisecond)
			}
			st, err := pool.Wait(id)
			if err != nil {
				errs <- err
				return
			}
			if st.State != StateDone {
				errs <- fmt.Errorf("job %s (%s): state %s, error %q", id, engine, st.State, st.Error)
				return
			}
			if _, err := pool.Result(id); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := pool.Stats()
	if s.Submitted != 64 || s.Completed != 64 || s.Failed != 0 || s.Rejected != 0 {
		t.Fatalf("stats after 64 jobs: %+v", s)
	}
	if s.TotalRun <= 0 {
		t.Fatalf("expected nonzero total run time, got %v", s.TotalRun)
	}
}

// TestCacheHitDeterminism checks that an identical resubmission is served
// from the content-addressed cache — identical counts, no re-execution —
// while a different seed misses.
func TestCacheHitDeterminism(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.cachetest", fake)

	pool := NewPool(Options{Workers: 2, QueueDepth: 8})
	defer pool.Close()

	id1, err := submit(pool, annealBundle(t, "fake.cachetest", 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Wait(id1); err != nil {
		t.Fatal(err)
	}
	res1, err := pool.Result(id1)
	if err != nil {
		t.Fatal(err)
	}

	// Identical intent + context + seed → cache hit, no second execution.
	id2, err := submit(pool, annealBundle(t, "fake.cachetest", 50, 7))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := pool.Wait(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("second submission: cacheHit=%v state=%s", st2.CacheHit, st2.State)
	}
	res2, err := pool.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Entries, res2.Entries) || res1.Engine != res2.Engine || res1.Samples != res2.Samples {
		t.Fatalf("cached result differs:\n  first  %+v\n  second %+v", res1, res2)
	}
	if got := fake.execs.Load(); got != 1 {
		t.Fatalf("backend executed %d times, want 1 (second run must come from cache)", got)
	}

	// Different seed → different content address → executes again.
	id3, err := submit(pool, annealBundle(t, "fake.cachetest", 50, 8))
	if err != nil {
		t.Fatal(err)
	}
	st3, err := pool.Wait(id3)
	if err != nil {
		t.Fatal(err)
	}
	if st3.CacheHit {
		t.Fatal("different seed must not hit the cache")
	}
	if got := fake.execs.Load(); got != 2 {
		t.Fatalf("backend executed %d times, want 2", got)
	}

	s := pool.Stats()
	if s.CacheHits != 1 || s.Completed != 3 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestQueueFullBackpressure fills the bounded queue behind a blocked
// worker and checks Submit rejects with ErrQueueFull.
func TestQueueFullBackpressure(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 4)}
	registerFake(t, "fake.backpressure", fake)

	pool := NewPool(Options{Workers: 1, QueueDepth: 1, CacheSize: -1})
	defer pool.Close()

	id1, err := submit(pool, annealBundle(t, "fake.backpressure", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran // worker has dequeued id1 and is blocked inside Execute

	id2, err := submit(pool, annealBundle(t, "fake.backpressure", 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(pool, annealBundle(t, "fake.backpressure", 50, 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if s := pool.Stats(); s.Rejected != 1 || s.Submitted != 2 {
		t.Fatalf("stats after rejection: %+v", s)
	}

	// Canceling the queued job frees its slot: the next submit is
	// accepted instead of rejected.
	if _, err := pool.Cancel(context.Background(), id2); err != nil {
		t.Fatal(err)
	}
	id4, err := submit(pool, annealBundle(t, "fake.backpressure", 50, 4))
	if err != nil {
		t.Fatalf("submit after cancel should reuse the freed slot: %v", err)
	}

	close(fake.block)
	for _, id := range []string{id1, id4} {
		if st, err := pool.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
	}
	if st, err := pool.Wait(id2); err != nil || st.State != StateCanceled {
		t.Fatalf("canceled job %s: %v / %+v", id2, err, st)
	}
}

// TestCancel cancels a queued job behind a blocked worker and checks the
// lifecycle and error surface.
func TestCancel(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 4)}
	registerFake(t, "fake.cancel", fake)

	pool := NewPool(Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer pool.Close()

	id1, err := submit(pool, annealBundle(t, "fake.cancel", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran

	id2, err := submit(pool, annealBundle(t, "fake.cancel", 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Cancel(context.Background(), id2); err != nil {
		t.Fatal(err)
	}
	st, err := pool.Status(id2)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("canceled job: %v / %+v", err, st)
	}
	if _, err := pool.Result(id2); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Result of canceled job: %v, want ErrCanceled", err)
	}
	if _, err := pool.Cancel(context.Background(), id1); err == nil {
		t.Fatal("canceling a running job must fail")
	}
	if _, err := pool.Cancel(context.Background(), "job-99999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
	if s := pool.Stats(); s.QueueLen != 0 {
		t.Fatalf("canceling the queued job must free its slot, queue len %d", s.QueueLen)
	}

	close(fake.block)
	if st, err := pool.Wait(id1); err != nil || st.State != StateDone {
		t.Fatalf("job %s: %v / %+v", id1, err, st)
	}
	if _, err := pool.Cancel(context.Background(), id1); err == nil {
		t.Fatal("canceling a done job must fail")
	}
	// The canceled job must never have executed.
	if got := fake.execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (canceled job must be skipped)", got)
	}
	if s := pool.Stats(); s.Canceled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestRealEngineCacheDeterminism runs the seeded gate engine twice and
// checks the cached replay is byte-identical to fresh execution.
func TestRealEngineCacheDeterminism(t *testing.T) {
	pool := NewPool(Options{Workers: 2, QueueDepth: 4})
	defer pool.Close()

	ids := [2]string{}
	for i := range ids {
		id, err := submit(pool, gateBundle(t, "gate.statevector", 512, 42))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Wait(id); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	res1, err1 := pool.Result(ids[0])
	res2, err2 := pool.Result(ids[1])
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(res1.Entries, res2.Entries) {
		t.Fatal("cached gate result differs from fresh execution")
	}
	if s := pool.Stats(); s.CacheHits != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestNoisyJobGrantInvariant takes the noisy class through the serving
// tier: a bundle whose context carries exec.options.noise, run by one pool
// pinned to a single shard and by another that grants the lone job every
// shard, must decode to identical entries — the cache dedups on
// bundle+shots+seed alone and relies on the grant never showing in a
// result — with meta.noise attached and the engine's compile and execute
// stages in the span log. The 13-qubit case is above the simulator's
// parallel threshold with fewer shots than shards, so the wide grant
// splits into trajectory workers and shards per worker both.
func TestNoisyJobGrantInvariant(t *testing.T) {
	for _, tc := range []struct{ qubits, shots int }{{4, 200}, {13, 3}} {
		reg := qdt.NewIsingVars("ising_vars", "s", tc.qubits)
		seq, err := algolib.BuildQAOA(reg, graph.Cycle(tc.qubits), []float64{0.39}, []float64{1.17})
		if err != nil {
			t.Fatal(err)
		}
		ctx := ctxdesc.NewGate("gate.statevector", tc.shots, 7)
		ctx.Exec.Options = map[string]any{"noise": map[string]any{"prob_1q": 0.01, "prob_2q": 0.05, "readout_flip": 0.02}}
		b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
		if err != nil {
			t.Fatal(err)
		}
		var entries [2][]result.Entry
		for i, o := range []SubmitOptions{{Shards: 1}, {}} {
			pool := NewPool(Options{Workers: 1, QueueDepth: 2, MaxShards: 8})
			t.Cleanup(pool.Close)
			id, err := submitWith(pool, b, o)
			if err != nil {
				t.Fatal(err)
			}
			st, err := pool.Wait(id)
			if err != nil || st.State != StateDone {
				t.Fatalf("%d qubits, %+v: state %s, err %v (%s)", tc.qubits, o, st.State, err, st.Error)
			}
			if want := []int{1, 8}[i]; st.Shards != want {
				t.Errorf("%d qubits, %+v: granted %d shards, want %d", tc.qubits, o, st.Shards, want)
			}
			stages := map[string]bool{}
			for _, sp := range st.Spans {
				stages[sp.Stage] = true
			}
			if !stages["compile"] || !stages["execute"] {
				t.Errorf("%d qubits, %+v: span log %v lacks the engine's compile/execute stages", tc.qubits, o, st.Spans)
			}
			res, err := pool.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if res.Meta["noise"] == nil {
				t.Errorf("%d qubits, %+v: result carries no meta.noise", tc.qubits, o)
			}
			total := 0
			for _, e := range res.Entries {
				total += e.Count
			}
			if total != tc.shots {
				t.Errorf("%d qubits, %+v: %d shots decoded, want %d", tc.qubits, o, total, tc.shots)
			}
			entries[i] = res.Entries
		}
		if !reflect.DeepEqual(entries[0], entries[1]) {
			t.Errorf("%d qubits: entries differ between a 1-shard and an 8-shard grant", tc.qubits)
		}
	}
}

// TestFailedJob routes an unknown engine through the pool and checks the
// failure lifecycle.
func TestFailedJob(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 4})
	defer pool.Close()

	id, err := submit(pool, annealBundle(t, "no.such_engine", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := pool.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("status: %+v", st)
	}
	if _, err := pool.Result(id); err == nil {
		t.Fatal("Result of failed job must return the execution error")
	}
	if s := pool.Stats(); s.Failed != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// Failures are not cached: resubmission runs (and fails) again.
	id2, err := submit(pool, annealBundle(t, "no.such_engine", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st2, _ := pool.Wait(id2); st2.CacheHit {
		t.Fatal("failed jobs must not populate the cache")
	}
}

// TestClosedPool checks Submit after Close and unknown-ID lookups.
func TestClosedPool(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 1})
	pool.Close()
	if _, err := submit(pool, annealBundle(t, "anneal.sa", 10, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if _, err := pool.Status("job-00000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("status unknown: %v, want ErrNotFound", err)
	}
	if _, err := pool.Result("job-00000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("result unknown: %v, want ErrNotFound", err)
	}
	if _, err := pool.Wait("job-00000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wait unknown: %v, want ErrNotFound", err)
	}
}

// TestCacheKey pins the content-address semantics: provenance does not
// affect the key; seed, shots and context do.
func TestCacheKey(t *testing.T) {
	base := annealBundle(t, "anneal.sa", 50, 7)
	k1, err := CacheKey(base)
	if err != nil {
		t.Fatal(err)
	}

	same := annealBundle(t, "anneal.sa", 50, 7)
	same.Provenance = &bundle.Provenance{CreatedBy: "someone/else", Version: "9.9.9"}
	k2, err := CacheKey(same)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("provenance must not change the cache key")
	}

	if k, _ := CacheKey(annealBundle(t, "anneal.sa", 50, 8)); k == k1 {
		t.Fatal("seed must change the cache key")
	}
	if k, _ := CacheKey(annealBundle(t, "anneal.sa", 51, 7)); k == k1 {
		t.Fatal("read count must change the cache key")
	}
	if k, _ := CacheKey(annealBundle(t, "anneal.neal", 50, 7)); k == k1 {
		t.Fatal("engine must change the cache key")
	}
	if !strings.HasPrefix(k1, "sha256:") {
		t.Fatalf("key %q lacks the sha256: prefix", k1)
	}
}

// TestInFlightDuplicatesCoalesce submits two duplicates of a job that is
// *currently executing*: they must attach to the running job's completion
// (no second execution, no queue slot) and finish the moment it does.
func TestInFlightDuplicatesCoalesce(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 4)}
	registerFake(t, "fake.inflight_dup", fake)

	// QueueDepth 1: the coalesced duplicates must not consume queue
	// slots, or the second submission would be rejected.
	pool := NewPool(Options{Workers: 1, QueueDepth: 1})
	defer pool.Close()

	ids := make([]string, 3)
	for i := range ids {
		id, err := submit(pool, annealBundle(t, "fake.inflight_dup", 50, 9))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if i == 0 {
			<-fake.ran // ensure duplicates are submitted while job 1 runs
		}
	}
	close(fake.block)
	for i, id := range ids {
		st, err := pool.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
		if wantCoalesce := i > 0; st.Coalesced != wantCoalesce {
			t.Fatalf("job %d coalesced = %v, want %v", i, st.Coalesced, wantCoalesce)
		}
		if st.CacheHit {
			t.Fatalf("job %d reported a cache hit; in-flight duplicates must coalesce instead", i)
		}
		res, err := pool.Result(id)
		if err != nil || len(res.Entries) != 2 {
			t.Fatalf("job %s result: %v / %+v", id, err, res)
		}
	}
	if got := fake.execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if s := pool.Stats(); s.Coalesced != 2 || s.CacheHits != 0 || s.Completed != 3 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestCoalescedDuplicateSharesFailure checks that coalesced duplicates
// inherit the primary's failure instead of hanging or re-executing.
func TestCoalescedDuplicateSharesFailure(t *testing.T) {
	fake := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2), fail: true}
	registerFake(t, "fake.inflight_fail", fake)

	pool := NewPool(Options{Workers: 1, QueueDepth: 2})
	defer pool.Close()

	id1, err := submit(pool, annealBundle(t, "fake.inflight_fail", 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-fake.ran
	id2, err := submit(pool, annealBundle(t, "fake.inflight_fail", 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	close(fake.block)
	for _, id := range []string{id1, id2} {
		st, err := pool.Wait(id)
		if err != nil || st.State != StateFailed {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
		if _, err := pool.Result(id); err == nil {
			t.Fatalf("job %s: failed job returned a result", id)
		}
	}
	if got := fake.execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

// TestQueuedDuplicatesServedWithoutRerun queues three identical jobs
// while the only worker is blocked on an unrelated job, so none of the
// duplicates is in flight at submit time. The first executes; the others
// must still be served without re-execution (dequeue-time coalescing or
// cache, whichever fires first).
func TestQueuedDuplicatesServedWithoutRerun(t *testing.T) {
	blocker := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2)}
	registerFake(t, "fake.queued_blocker", blocker)
	fake := &fakeBackend{}
	registerFake(t, "fake.queued_dup", fake)

	pool := NewPool(Options{Workers: 1, QueueDepth: 4})
	defer pool.Close()

	if _, err := submit(pool, annealBundle(t, "fake.queued_blocker", 50, 1)); err != nil {
		t.Fatal(err)
	}
	<-blocker.ran // worker is now busy; everything below stays queued
	ids := make([]string, 3)
	for i := range ids {
		id, err := submit(pool, annealBundle(t, "fake.queued_dup", 50, 9))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	close(blocker.block)
	for _, id := range ids {
		st, err := pool.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
	}
	if got := fake.execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if s := pool.Stats(); s.CacheHits+s.Coalesced != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestShardGrantScheduling checks the per-job parallelism policy: a job
// starting into an idle pool takes the full MaxShards grant, a job
// starting while another runs stays single-shard, and an explicit
// SubmitOptions pin wins (clamped to the cap).
func TestShardGrantScheduling(t *testing.T) {
	lone := &fakeBackend{}
	registerFake(t, "fake.shards_lone", lone)
	blocked := &fakeBackend{block: make(chan struct{}), ran: make(chan struct{}, 2)}
	registerFake(t, "fake.shards_blocked", blocked)
	rival := &fakeBackend{}
	registerFake(t, "fake.shards_rival", rival)

	pool := NewPool(Options{Workers: 2, QueueDepth: 8, CacheSize: -1, MaxShards: 8})
	defer pool.Close()

	// Idle pool: the lone job gets every shard.
	id, err := submit(pool, annealBundle(t, "fake.shards_lone", 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := pool.Wait(id); st.Shards != 8 {
		t.Errorf("lone job granted %d shards, want 8", st.Shards)
	}

	// A job starting while another is running stays single-shard.
	blockID, err := submit(pool, annealBundle(t, "fake.shards_blocked", 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-blocked.ran
	rivalID, err := submit(pool, annealBundle(t, "fake.shards_rival", 50, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := pool.Wait(rivalID); st.Shards != 1 {
		t.Errorf("concurrent job granted %d shards, want 1", st.Shards)
	}
	close(blocked.block)
	if st, _ := pool.Wait(blockID); st.Shards != 8 {
		t.Errorf("blocked lone job granted %d shards, want 8", st.Shards)
	}

	// Explicit pins are honored and clamped.
	id, err = submitWith(pool, annealBundle(t, "fake.shards_lone", 50, 4), SubmitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := pool.Wait(id); st.Shards != 3 {
		t.Errorf("pinned job granted %d shards, want 3", st.Shards)
	}
	id, err = submitWith(pool, annealBundle(t, "fake.shards_lone", 50, 5), SubmitOptions{Shards: 99})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := pool.Wait(id); st.Shards != 8 {
		t.Errorf("overpinned job granted %d shards, want clamp to 8", st.Shards)
	}

	if s := pool.Stats(); s.MaxShards != 8 || s.WideJobs < 3 {
		t.Errorf("stats: %+v", s)
	}
}

// TestTerminalRecordEviction checks the bounded job-history: beyond
// MaxRecords the oldest finished jobs stop resolving while recent ones
// and the per-job Wait snapshot keep working.
func TestTerminalRecordEviction(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.evict", fake)

	pool := NewPool(Options{Workers: 1, QueueDepth: 8, CacheSize: -1, MaxRecords: 2})
	defer pool.Close()

	ids := make([]string, 3)
	for i := range ids {
		id, err := submit(pool, annealBundle(t, "fake.evict", 50, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := pool.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
		ids[i] = id
	}
	if _, err := pool.Status(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest record should be evicted, got %v", err)
	}
	for _, id := range ids[1:] {
		if _, err := pool.Result(id); err != nil {
			t.Fatalf("recent record %s evicted: %v", id, err)
		}
	}
}

// TestSubmitCloseRace hammers Submit from several goroutines while Close
// runs; under -race this guards the enqueue-vs-channel-close ordering
// (Submit must never send on the closed queue).
func TestSubmitCloseRace(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.closerace", fake)

	pool := NewPool(Options{Workers: 2, QueueDepth: 2, CacheSize: -1})
	b := annealBundle(t, "fake.closerace", 50, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				if _, err := submit(pool, b); err != nil &&
					!errors.Is(err, ErrClosed) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	pool.Close()
	wg.Wait()
	if _, err := submit(pool, b); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestCacheLRUEviction checks the cache keeps at most CacheSize entries
// and evicts least-recently-used first.
func TestCacheLRUEviction(t *testing.T) {
	fake := &fakeBackend{}
	registerFake(t, "fake.lru", fake)

	pool := NewPool(Options{Workers: 1, QueueDepth: 8, CacheSize: 2})
	defer pool.Close()

	submit := func(seed uint64) Status {
		t.Helper()
		id, err := submit(pool, annealBundle(t, "fake.lru", 50, seed))
		if err != nil {
			t.Fatal(err)
		}
		st, err := pool.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	submit(1)
	submit(2)
	submit(3) // evicts seed 1
	if s := pool.Stats(); s.CacheSize != 2 {
		t.Fatalf("cache size %d, want 2", s.CacheSize)
	}
	if st := submit(1); st.CacheHit {
		t.Fatal("seed 1 should have been evicted")
	}
	if st := submit(1); !st.CacheHit {
		t.Fatal("seed 1 should now be cached")
	}
}
