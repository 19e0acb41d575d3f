package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// setupConns is the fixed concurrency of the preload and the warm-up.
	// It is not the caller count: set-up is a fixed amount of work, timed.
	// It stays at the dispatcher's default affinity slack (4), so that no
	// hot-set bundle is spilled off the worker its duplicates will be
	// routed to.
	setupConns = 4
	// setupRepeats is how many times a gated run sets the system up; it
	// reports the median, because one process start is at the mercy of a
	// single page-cache miss (three set-ups of one run read 0.58, 0.40 and
	// 0.31 s).
	setupRepeats = 5
	// setupRefSamples reference samples follow each set-up, to tell how fast
	// the machine was about then.
	setupRefSamples = 10
	// maxFailures bounds the failure messages kept for the report.
	maxFailures = 5
	// gatedFsync is the journal policy of every timed run. The servers
	// write their journals and result files to the checkout's file system
	// through every code path but the fsync barrier itself: on a shared
	// VM's disk that barrier's latency moved the small-job median between
	// 10 and 29 ms across ten otherwise identical runs, which would drown
	// every other signal. The barrier is reported per layer instead, as
	// exact counts from a short pass under the default policy
	// (store.fsyncs_per_op) and as store.fsync_disk_us.
	gatedFsync = "none"
)

// callers is C, the busy phase's caller count: one connection per core,
// capped at four. More callers than cores would queue in the generator,
// not in the server.
func callers() int { return min(runtime.NumCPU(), 4) }

// Phase is one timed phase of a live run.
type Phase struct {
	Clients int
	// Seconds runs from the phase's start to its last completion.
	Seconds float64
	Samples []Sample
	// CPUMS is the CPU time the server processes used over the phase.
	CPUMS float64
	// Ref holds the machine-speed reference samples taken between the ops
	// of a lone phase; a phase with more callers has none, since the
	// reference would compete with them.
	Ref []RefSample
}

// units is the work the phase completed: jobs, or sweep points.
func (p Phase) units() float64 {
	total := 0.0
	for _, s := range p.Samples {
		total += s.Units
	}
	return total
}

// rate is units per second over the phase.
func (p Phase) rate() float64 { return p.units() / p.Seconds }

// cpuPerUnit is server CPU ms per unit of work over the phase.
func (p Phase) cpuPerUnit() float64 { return p.CPUMS / p.units() }

// executed are the latencies of the ops that ran on an engine: every op but
// the hot-set duplicates, which a cache answers ten times faster and which
// are reported on their own (client.latency_p50_ms.hit). Pooled with the
// rest they make the median a vote on which population is larger: behind
// the dispatcher 33 to 51 % of a run's ops are answered without waiting for
// a poll (the duplicates, and the small jobs that win the race against the
// first status poll), and the pooled median read 106 ms in six runs of ten
// and 12 to 20 ms in four.
func (p Phase) executed() []float64 {
	var out []float64
	for _, s := range p.Samples {
		if s.Class != classHit {
			out = append(out, s.LatencyMS())
		}
	}
	return out
}

// latencies pools the phase's op latencies, optionally of one class.
func (p Phase) latencies(class string) []float64 {
	var out []float64
	for _, s := range p.Samples {
		if class == "" || s.Class == class {
			out = append(out, s.LatencyMS())
		}
	}
	return out
}

// LiveRun is what driving one workload against real processes yields.
type LiveRun struct {
	Workload Workload
	// SetupS are the set-ups' times as measured, SetupSlowdown how much
	// slower than nominal the machine ran right after each.
	SetupS        []float64
	SetupSlowdown []float64
	// Lone is the phase with one caller, Busy the one with C; a gated run
	// has no busy phase.
	Lone Phase
	Busy Phase
	// Attempted and Failed count ops, set-up included. An op fails on a
	// non-2xx reply, a failed or timed-out job, or a result that fails a
	// correctness check.
	Attempted, Failed int
	Failures          []string
	// WarmDigest is the digest of the warm-up set's results.
	WarmDigest string
	// Before and After are /metrics summed over all processes, taken after
	// set-up and after the last phase; FrontBefore and FrontAfter are the
	// front process alone (the fleet_* families live only there).
	Before, After           Snapshot
	FrontBefore, FrontAfter Snapshot
	// TimedOps and TimedHits count the ops, and the hot-set duplicates
	// among them, issued between the two snapshots.
	TimedOps, TimedHits int
	RSSPeakMB           float64
	HTTPFloorUS         float64
}

// tally counts ops and failures across the set-ups and phases of a run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// session is one cluster life: set-up, then the timed phases.
type session struct {
	w       Workload
	gen     *Generator
	tally   *tally
	cluster *Cluster
	client  *Client
	next    atomic.Int64 // index of the next op to issue
	hot     []Reply
	// verify holds the sampled ops of the timed phases, hits counts the
	// hot-set duplicates issued in them.
	verify []served
	hits   int
}

// served pairs an op with the reply it got, for the checks that run after
// the timed phases.
type served struct {
	op    Op
	reply Reply
}

func (s *session) fail(op Op, err error) {
	s.tally.fail("op %d (%s): %v", op.Index, op.Class, err)
}

// issue runs one op and applies the per-reply checks.
func (s *session) issue(op Op) (Reply, bool) {
	s.tally.attempt()
	reply, err := s.client.Do(op)
	if err == nil {
		err = checkReply(op, reply, s.hot)
	}
	if err != nil {
		s.fail(op, err)
		return Reply{}, false
	}
	return reply, true
}

// parallel runs fn(i) for i in [0,n) over conns goroutines.
func parallel(n, conns int, fn func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < min(conns, n); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// setUp starts the processes, preloads the hot set and runs the fixed
// warm-up. It returns the replies of the warm-up ops, in op order.
func (s *session) setUp(bin, fsync, dataRoot, logDir string) ([]served, error) {
	cluster, err := startCluster(bin, s.w, fsync, dataRoot, logDir)
	if err != nil {
		return nil, err
	}
	s.cluster = cluster
	s.client = newClient(cluster.Front, max(setupConns, callers()))

	failedBefore := s.tally.failed
	hot := make([]Reply, len(s.gen.hot))
	parallel(len(hot), setupConns, func(k int) {
		hot[k], _ = s.issue(s.gen.hot[k])
	})
	s.hot = hot
	if s.tally.failed > failedBefore {
		return nil, fmt.Errorf("preloading the hot set failed: %v", s.tally.failures)
	}

	warm := make([]served, s.w.WarmupOps)
	var genErr atomic.Value
	parallel(len(warm), setupConns, func(i int) {
		op, err := s.gen.Op(i)
		if err != nil {
			genErr.Store(err)
			return
		}
		reply, _ := s.issue(op)
		warm[i] = served{op, reply}
	})
	s.next.Store(int64(len(warm)))
	if err, _ := genErr.Load().(error); err != nil {
		return nil, err
	}
	return warm, cluster.checkAlive()
}

// phase drives the cluster with the given number of closed-loop callers
// for the given time, then lets the ops in flight complete. A lone caller
// samples the machine-speed reference between its ops, while the servers
// are idle.
func (s *session) phase(clients int, length time.Duration) (Phase, error) {
	ph := Phase{Clients: clients}
	if clients == 1 {
		refWarm()
	}
	cpuBefore, err := s.cluster.cpuMS()
	if err != nil {
		return ph, err
	}
	start := time.Now()
	deadline := start.Add(length)

	var mu sync.Mutex
	var genErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastRef time.Time
			for time.Now().Before(deadline) {
				if clients == 1 && time.Since(lastRef) >= refEvery {
					ph.Ref = append(ph.Ref, refSample())
					lastRef = time.Now()
				}
				op, err := s.gen.Op(int(s.next.Add(1)) - 1)
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				t0 := time.Now()
				reply, ok := s.issue(op)
				t1 := time.Now()
				mu.Lock()
				if op.Hot >= 0 {
					s.hits++
				}
				if ok {
					ph.Samples = append(ph.Samples, Sample{
						Start: t0.Sub(start).Seconds(), End: t1.Sub(start).Seconds(),
						Class: op.Class, Units: float64(s.w.UnitsPerOp),
					})
					if op.Verify {
						s.verify = append(s.verify, served{op, reply})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.Seconds = time.Since(start).Seconds()
	if genErr != nil {
		return ph, genErr
	}
	cpuAfter, err := s.cluster.cpuMS()
	if err != nil {
		return ph, err
	}
	ph.CPUMS = cpuAfter - cpuBefore
	return ph, s.cluster.checkAlive()
}

// verifyServed runs the checks that cost CPU, after the timed phases:
// the sampled ops and the whole warm-up set are re-executed in-process and
// compared entry for entry. The warm-up comparison is what makes
// dispatch_mix and serve_mix comparable without running both: each must
// equal the in-process results of the same op list, hence each other.
func (s *session) verifyServed(warm []served) {
	for _, v := range s.verify {
		if err := reexecute(v.op, v.reply, verifyGridPoints); err != nil {
			s.fail(v.op, fmt.Errorf("in-process re-execution: %w", err))
		}
	}
	for _, v := range warm {
		if v.reply.Points == nil {
			continue // already counted as failed when it was issued
		}
		if err := reexecute(v.op, v.reply, 0); err != nil {
			s.fail(v.op, fmt.Errorf("warm-up op, in-process re-execution: %w", err))
		}
	}
}

// runLive measures one workload against real processes: set-up (done
// `setups` times on fresh processes, to report a steadier median; the last
// one is measured on), a lone phase with one caller, a busy phase with C
// callers where busy > 0, then the checks.
func runLive(w Workload, seed uint64, lone, busy time.Duration, setups int, fsync, bin, dataRoot, logDir string) (*LiveRun, error) {
	gen, err := newGenerator(w, seed)
	if err != nil {
		return nil, err
	}
	run := &LiveRun{Workload: w}
	t := &tally{}
	var s *session
	var warm []served
	refWarm()
	for r := 0; r < setups; r++ {
		if s != nil {
			s.tearDown()
		}
		s = &session{w: w, gen: gen, tally: t}
		start := time.Now()
		warm, err = s.setUp(bin, fsync, dataRoot, logDir)
		run.SetupS = append(run.SetupS, time.Since(start).Seconds())
		if err != nil {
			s.tearDown()
			return nil, err
		}
		ref := make([]RefSample, setupRefSamples)
		for i := range ref {
			ref[i] = refSample()
		}
		run.SetupSlowdown = append(run.SetupSlowdown, slowdown(ref))
	}
	defer s.tearDown()

	// The layers' own counters are read around the timed phases, outside
	// them.
	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	defer scrapeClient.CloseIdleConnections()
	if run.HTTPFloorUS, err = s.client.floorUS(200); err != nil {
		return nil, err
	}
	if run.Before, run.FrontBefore, err = s.cluster.scrapeAll(scrapeClient); err != nil {
		return nil, err
	}
	first := s.next.Load()

	if run.Lone, err = s.phase(1, lone); err != nil {
		return nil, err
	}
	if busy > 0 {
		if run.Busy, err = s.phase(callers(), busy); err != nil {
			return nil, err
		}
	}
	run.TimedOps, run.TimedHits = int(s.next.Load()-first), s.hits

	if run.After, run.FrontAfter, err = s.cluster.scrapeAll(scrapeClient); err != nil {
		return nil, err
	}
	for _, p := range s.cluster.Procs {
		run.RSSPeakMB += p.rssPeakMB()
	}
	// A drift here is a benchmark bug or a cache regression: every
	// hot-set duplicate, and nothing else, is a cache hit; nothing is
	// refused.
	if hits := delta(run.Before, run.After, "jobs_cache_hits_total"); hits != float64(run.TimedHits) {
		t.fail("servers counted %v cache hits for %d hot-set duplicates issued", hits, run.TimedHits)
	}
	if rejected := delta(run.Before, run.After, "jobs_rejected_total"); rejected != 0 {
		t.fail("servers refused %v submissions", rejected)
	}
	s.verifyServed(warm)
	var replies []Reply
	for _, v := range warm {
		replies = append(replies, v.reply)
	}
	run.WarmDigest = digest(replies)
	run.Attempted, run.Failed, run.Failures = t.attempted, t.failed, t.failures
	return run, nil
}

func (s *session) tearDown() {
	if s.client != nil {
		s.client.close()
	}
	if s.cluster != nil {
		s.cluster.stop()
	}
}
