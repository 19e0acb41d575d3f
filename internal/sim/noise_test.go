package sim

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/ctxdesc"
)

func bellCircuit() *circuit.Circuit {
	c := circuit.New(2, 2)
	c.H(0).CX(0, 1).MeasureAll()
	return c
}

func TestRunNoisyZeroNoiseMatchesRun(t *testing.T) {
	c := bellCircuit()
	clean, err := Run(c, Options{Shots: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RunNoisy(c, NoiseModel{}, Options{Shots: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range clean.Counts {
		if noisy.Counts[k] != v {
			t.Fatalf("zero-noise path diverged at %d: %d vs %d", k, v, noisy.Counts[k])
		}
	}
}

func TestRunNoisyBellDegrades(t *testing.T) {
	c := bellCircuit()
	noisy, err := RunNoisy(c, NoiseModel{Prob1Q: 0.02, Prob2Q: 0.05}, Options{Shots: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Correlated outcomes (00, 11) still dominate but the anticorrelated
	// ones now appear.
	good := noisy.Counts[0] + noisy.Counts[3]
	bad := noisy.Counts[1] + noisy.Counts[2]
	if bad == 0 {
		t.Error("noise injected no errors")
	}
	frac := float64(good) / 3000
	if frac < 0.80 || frac >= 1.0 {
		t.Errorf("Bell fidelity proxy %v, want in [0.80, 1)", frac)
	}
	_ = bad
}

func TestRunNoisyFidelityMonotoneInNoise(t *testing.T) {
	c := bellCircuit()
	fidelity := func(p float64) float64 {
		res, err := RunNoisy(c, NoiseModel{Prob1Q: p, Prob2Q: p}, Options{Shots: 2000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Counts[0]+res.Counts[3]) / 2000
	}
	f0, f1, f2 := fidelity(0.005), fidelity(0.05), fidelity(0.25)
	if !(f0 > f1 && f1 > f2) {
		t.Errorf("fidelity not monotone: %v, %v, %v", f0, f1, f2)
	}
}

func TestRunNoisyReadoutFlip(t *testing.T) {
	// Deterministic |0⟩ with pure readout noise: P(1) ≈ flip rate.
	c := circuit.New(1, 1)
	c.Gate("id", []int{0})
	c.Measure(0, 0)
	res, err := RunNoisy(c, NoiseModel{ReadoutFlip: 0.1}, Options{Shots: 5000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Counts[1]) / 5000
	if math.Abs(frac-0.1) > 0.02 {
		t.Errorf("readout flip rate %v, want ~0.1", frac)
	}
}

func TestRunNoisyValidation(t *testing.T) {
	c := bellCircuit()
	if _, err := RunNoisy(c, NoiseModel{Prob1Q: -1}, Options{Shots: 1}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := RunNoisy(c, NoiseModel{Prob2Q: 1.5}, Options{Shots: 1}); err == nil {
		t.Error(">1 probability accepted")
	}
	if _, err := RunNoisy(c, NoiseModel{Prob1Q: 0.1}, Options{Shots: -1}); err == nil {
		t.Error("negative shots accepted")
	}
	// Shots sizes the per-shot stream table derived before any
	// trajectory runs: a huge value must be refused, not allocated.
	for _, shots := range []int{ctxdesc.MaxSamples + 1, 1e12} {
		for _, noise := range []NoiseModel{{Prob1Q: 0.1}, {ReadoutFlip: 0.1}} {
			if _, err := RunNoisy(c, noise, Options{Shots: shots}); err == nil {
				t.Errorf("%d shots accepted under %+v", shots, noise)
			}
		}
	}
}

// TestRunNoisyReadoutOnlySharedState exercises the readout-only fast path
// (one evolution, shared CDF, binary-search draws): determinism by seed,
// sensitivity to the seed, and agreement with the exact distribution.
func TestRunNoisyReadoutOnlySharedState(t *testing.T) {
	c := circuit.New(3, 3)
	c.H(0).CX(0, 1).CX(1, 2).MeasureAll()
	nm := NoiseModel{ReadoutFlip: 0.05}
	a, err := RunNoisy(c, nm, Options{Shots: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNoisy(c, nm, Options{Shots: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Fatalf("same seed, different counts at %d", k)
		}
	}
	if a.Counts.TotalShots() != 4000 {
		t.Fatalf("total shots %d", a.Counts.TotalShots())
	}
	// GHZ + 5%% flips: the two correlated outcomes still dominate.
	frac := float64(a.Counts[0]+a.Counts[7]) / 4000
	if frac < 0.75 || frac >= 1.0 {
		t.Errorf("GHZ fidelity proxy %v, want in [0.75, 1)", frac)
	}
	c2, err := RunNoisy(c, nm, Options{Shots: 4000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k, v := range a.Counts {
		if c2.Counts[k] != v {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical readout-only counts")
	}
}

// TestRunNoisyReadoutOnlyMidMeasureRejected keeps the fast path's error
// contract aligned with the trajectory loop.
func TestRunNoisyReadoutOnlyMidMeasureRejected(t *testing.T) {
	c := circuit.New(2, 2)
	c.H(0).Measure(0, 0)
	c.X(1)
	if _, err := RunNoisy(c, NoiseModel{ReadoutFlip: 0.1}, Options{Shots: 5}); err == nil {
		t.Error("mid-circuit measurement accepted by readout-only path")
	}
	// Unmeasured circuits still surface compile errors (bypass the builder
	// validation to plant an invalid instruction).
	c2 := circuit.New(1, 0)
	c2.Instrs = append(c2.Instrs, circuit.Instruction{
		Op: circuit.OpGate, Gate: "nope", Qubits: []int{0},
	})
	if _, err := RunNoisy(c2, NoiseModel{ReadoutFlip: 0.1}, Options{Shots: 5}); err == nil {
		t.Error("invalid gate accepted by readout-only path")
	}
	// Runtime evolution errors surface even with nothing measured, as the
	// per-shot path surfaced them: an init on a qubit no longer in |0⟩.
	c3 := circuit.New(1, 0)
	c3.X(0)
	if err := c3.Init([]int{0}, []complex128{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunNoisy(c3, NoiseModel{ReadoutFlip: 0.1}, Options{Shots: 5}); err == nil {
		t.Error("init on non-|0⟩ qubit accepted by unmeasured readout-only path")
	}
}

// goroutineHighWater runs f and returns the largest runtime.NumGoroutine a
// 20 µs poll saw meanwhile, less the count before f started.
func goroutineHighWater(f func()) int {
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	done := make(chan struct{})
	var maxG atomic.Int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if g := int64(runtime.NumGoroutine()); g > maxG.Load() {
					maxG.Store(g)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	f()
	close(stop)
	<-done
	return int(maxG.Load()) - base
}

// TestRunNoisyTrajectoryWorkersSerialSweeps guards the rule that the grant
// is the width: on a state above the parallel threshold a noisy run keeps
// at most grant goroutines sweeping — trajectory workers × shards — and
// never fans a gate out per worker. Grant 1 is what the pool hands a job
// whenever another is running; it once sent every gate to GOMAXPROCS
// goroutines.
func TestRunNoisyTrajectoryWorkersSerialSweeps(t *testing.T) {
	n := 14 // 2^14 amplitudes: every sweep is above parallelThreshold
	c := circuit.New(n, n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for l := 0; l < 6; l++ {
		for q := 0; q < n; q++ {
			c.RY(0.1*float64(l+q+1), q)
		}
	}
	c.MeasureAll()
	// Force a multi-core fan-out decision even on single-core runners so
	// the broken behavior (a sweep goroutine set per gate) is visible
	// everywhere.
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, grant := range []int{1, 4} {
		var err error
		high := goroutineHighWater(func() {
			_, err = RunNoisy(c, NoiseModel{Prob1Q: 0.01}, Options{Shots: 16, Seed: 3, Shards: grant})
		})
		if err != nil {
			t.Fatal(err)
		}
		// Allow the monitor itself plus a little runtime slack.
		if limit := grant + 6; high > limit {
			t.Errorf("grant %d: goroutine high-water mark base+%d exceeds base+%d: trajectory sweeps are fanning out", grant, high, limit)
		}
	}
}

// TestRunNoisyWorkerArenaReuse: a trajectory worker resets one Runner per
// shot instead of allocating a state, so what RunNoisy allocates does not
// grow with 2^n × shots. At 12 qubits (64 KiB of planes) and one worker,
// 128 shots stay under 2 MB in total and a further shot costs far less
// than a state.
func TestRunNoisyWorkerArenaReuse(t *testing.T) {
	c := goldenQAOA(12)
	nm := NoiseModel{Prob1Q: 0.001, Prob2Q: 0.01, ReadoutFlip: 0.02}
	allocated := func(shots int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunNoisy(c, nm, Options{Shots: shots, Seed: 5, Shards: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	few, many := allocated(8), allocated(128)
	if many > 2<<20 {
		t.Errorf("RunNoisy at 12 qubits × 128 shots allocated %d bytes, want ≤ 2 MiB", many)
	}
	const planes = 16 << 12
	if perShot := (many - few) / 120; perShot > planes/4 {
		t.Errorf("each further shot allocates %d bytes (a state is %d): the worker is not reusing its arena", perShot, planes)
	}
}

// TestRunNoisyTwoArenaMemory holds trajectories to their memory rule: a
// worker owns two state-sized plane pairs, the error-free evolution and
// the branch its shots finish on (three when a kernel stages through
// scratch planes, which the two share), and nothing else that grows with
// 2^n; the worker count keeps the total within maxTrajectoryBytes whenever
// more than one worker runs. The measured half runs 14 qubits (256 KiB per
// pair) at an error rate that sends every worker's shots down a branch,
// under grants 4 and 1: the three further workers of grant 4 cost what
// their arenas cost, up to the allocator rounding each plane up to whole
// pages.
func TestRunNoisyTwoArenaMemory(t *testing.T) {
	for n := 1; n <= MaxQubits; n++ {
		for _, arenas := range []int{2, 3} {
			w := trajectoryWorkers(64, 1<<20, n, arenas)
			if w > 1 && w*arenas*(16<<n) > maxTrajectoryBytes {
				t.Errorf("n=%d arenas=%d: %d workers hold %d bytes, over the %d budget", n, arenas, w, w*arenas*(16<<n), maxTrajectoryBytes)
			}
		}
	}
	if w := trajectoryWorkers(64, 1000, 20, 2); w != 2 {
		t.Errorf("2^20 amplitudes run %d workers, want 2", w)
	}
	if w := trajectoryWorkers(64, 1000, 21, 2); w != 1 {
		t.Errorf("2^21 amplitudes run %d workers, want 1", w)
	}

	const n, shots = 14, 16
	nm := NoiseModel{Prob1Q: 0.05, Prob2Q: 0.1}
	allocated := func(c *circuit.Circuit, grant int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunNoisy(c, nm, Options{Shots: shots, Seed: 9, Shards: grant}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// A Permute opening the circuit, which the error-free evolution sweeps,
	// and one closing it, which the branches sweep: both states stage.
	permuted := circuit.New(n, n)
	body := goldenQAOA(n).Instrs
	for _, ins := range [][]circuit.Instruction{nil, body[:len(body)-n]} { // drop the measurements
		permuted.Instrs = append(permuted.Instrs, ins...)
		if err := permuted.Permute([]int{n - 1, 0}, []uint64{2, 0, 3, 1}); err != nil {
			t.Fatal(err)
		}
	}
	permuted.MeasureAll()
	for _, c := range []*circuit.Circuit{goldenQAOA(n), permuted} {
		np, err := compileNoisy(c, nm)
		if err != nil {
			t.Fatal(err)
		}
		arenas := np.arenas()
		if w := trajectoryWorkers(4, shots, n, arenas); w != 4 {
			t.Fatalf("grant 4 runs %d workers", w)
		}
		perWorker := (allocated(c, 4) - allocated(c, 1)) / 3
		if limit := uint64(arenas*(16<<n)) * 9 / 8; perWorker > limit {
			t.Errorf("arenas=%d: a trajectory worker allocates %d bytes, the rule allows %d", arenas, perWorker, limit)
		}
	}
}

// TestRunNoisyBadInitNamesInstruction: an init that finds its qubits out
// of |0…0⟩ is a run-time failure of one kernel; the error still says which
// instruction, counted in the circuit's own numbering (barriers and all).
func TestRunNoisyBadInitNamesInstruction(t *testing.T) {
	c := circuit.New(2, 2)
	c.H(1).Barrier().X(0)
	if err := c.Init([]int{0}, []complex128{1, 0}); err != nil {
		t.Fatal(err)
	}
	c.MeasureAll()
	_, err := RunNoisy(c, NoiseModel{Prob1Q: 0.01}, Options{Shots: 4, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "sim: instruction 3: ") || !strings.Contains(err.Error(), "not in |0…0⟩") {
		t.Errorf("bad init reported as %v, want instruction 3 and the init failure", err)
	}
}

func TestRunNoisyDeterministicBySeed(t *testing.T) {
	c := bellCircuit()
	nm := NoiseModel{Prob1Q: 0.05, Prob2Q: 0.05, ReadoutFlip: 0.01}
	a, err := RunNoisy(c, nm, Options{Shots: 400, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNoisy(c, nm, Options{Shots: 400, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Fatalf("same seed, different noisy counts at %d", k)
		}
	}
}
