package sim

import (
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/obs"
)

// Engine stage histograms, registered process-wide: the sim layer has no
// handle on a server's registry, so it reports through obs.Default() and
// servers merge that registry into their /metrics.
var (
	simCompile = obs.Default().Histogram("sim_compile_seconds", "Circuit → fused kernel plan compile latency.", nil)
	simExecute = obs.Default().Histogram("sim_execute_seconds", "Kernel plan execution latency over the shard pool.", nil)
	simSample  = obs.Default().Histogram("sim_sample_seconds", "CDF build + shot sampling latency.", nil)
)

// observeStage records one engine stage in the process-wide histogram
// and forwards it to the per-job observer, if any.
func observeStage(h *obs.Histogram, stages func(string, time.Duration), name string, start time.Time) {
	d := time.Since(start)
	h.Observe(d)
	if stages != nil {
		stages(name, d)
	}
}

// Counts maps a classical-bit register value (clbit i = bit i of the key)
// to the number of shots observing it.
type Counts map[uint64]int

// TotalShots returns the sum of all counts.
func (c Counts) TotalShots() int {
	total := 0
	for _, n := range c {
		total += n
	}
	return total
}

// Keys returns the observed register values sorted ascending.
func (c Counts) Keys() []uint64 {
	keys := make([]uint64, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// MostFrequent returns the value with the highest count (lowest key wins
// ties, for determinism) and ok=false when no counts were recorded — the
// zero value and count are meaningless in that case. Runs in O(n) over
// the map — no sorted key pass.
func (c Counts) MostFrequent() (value uint64, count int, ok bool) {
	if len(c) == 0 {
		return 0, 0, false
	}
	bestK, bestN := uint64(0), -1
	for k, n := range c {
		if n > bestN || (n == bestN && k < bestK) {
			bestK, bestN = k, n
		}
	}
	return bestK, bestN, true
}

// Result is the outcome of executing a circuit.
type Result struct {
	Counts Counts
	Shots  int
	// Final gives access to the pre-measurement state (nil unless
	// KeepState was set), used by expectation-value helpers and tests.
	Final *State
	// Profile is the kernel-granular execution profile (nil unless
	// Options.Profile was set).
	Profile *Profile
}

// Options configure Run.
type Options struct {
	Shots     int
	Seed      uint64
	KeepState bool
	// Shards is the parallelism grant for this execution, the most
	// goroutines it sweeps on at once: the statevector splits into this
	// many contiguous shards owned by persistent workers (RunNoisy splits
	// it into trajectory workers × shards). 0 selects automatically
	// (single-shard for small states, GOMAXPROCS for large ones); the
	// serving layer passes an explicit value so a lone big simulation
	// takes every core while concurrent jobs stay narrow. Runner.Run
	// ignores it: a Runner's shard count is fixed when it is built.
	Shards int
	// Stages, when non-nil, receives one callback per engine stage
	// ("compile", "execute", "sample"; RunNoisy's trajectories sample as
	// they go and report "compile" and "execute") with its wall-clock
	// duration — the hook the jobs layer uses to attach per-job span logs.
	// Stage timings also land in the process-wide sim_*_seconds histograms
	// regardless.
	Stages func(stage string, d time.Duration)
	// Profile opts into the kernel-granular execution profiler: per-kernel
	// wall time and per-shard sweep times, returned in Result.Profile.
	// Profiling never changes amplitudes or sampled counts — the sweep
	// bodies and shard ranges are identical either way; only timestamps
	// are taken around them. RunNoisy ignores it under a non-zero model:
	// trajectories are many executions, not one kernel table.
	Profile bool
}

// Evolve applies every non-measurement instruction of the circuit to a
// fresh |0…0⟩ state and returns it: the circuit is compiled to a fused
// kernel plan and executed with an automatic shard count. Measurements
// must come last (the gate engine is a terminal-measurement simulator;
// adaptive control is future context work, as in the paper's late-binding
// discussion).
func Evolve(c *circuit.Circuit) (*State, error) {
	return EvolveShards(c, 0)
}

// EvolveShards is Evolve with an explicit shard count (0 = auto): a
// zero-shot Run that keeps its state.
func EvolveShards(c *circuit.Circuit, shards int) (*State, error) {
	res, err := Run(c, Options{Shards: shards, KeepState: true})
	if err != nil {
		return nil, err
	}
	return res.Final, nil
}

// Run executes the circuit for opts.Shots shots and returns counts over
// the classical register defined by the circuit's measurements. The
// circuit is compiled once into a fused kernel plan and executed across
// opts.Shards persistent shards (0 = auto); the sampling CDF builds on
// the same shard pool. A circuit with no measurements yields empty counts
// (but still evolves, and the state is available with KeepState).
func Run(c *circuit.Circuit, opts Options) (*Result, error) {
	stageStart := time.Now()
	pl, err := Compile(c)
	if err != nil {
		return nil, err
	}
	observeStage(simCompile, opts.Stages, "compile", stageStart)
	return RunPlan(c, pl, opts)
}

// RunPlan is Run with a precompiled plan: one Runner, one run. pl must
// have been compiled from c or from a bound copy of it — the measurement
// map and qubit count are read from c. Callers with many plans of one
// width (a sweep's bound points) keep a Runner instead and skip the
// per-run allocation; either way it is the same execution, CDF build and
// sampling code, so counts are bit-identical.
func RunPlan(c *circuit.Circuit, pl *Plan, opts Options) (*Result, error) {
	r, err := newRunner(c.NumQubits, opts.Shards)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Run(c, pl, opts)
}

// sampleCDF inverts the CDF for one draw u: the first index with
// cdf[k] > u, clamped to the last positive-probability index. The clamp is
// the float-drift guard: when rounding leaves cdf's top fractionally below
// u, the search lands past every positive-probability state, and without
// the clamp the draw would assign mass to a basis state the distribution
// gives zero probability (the old guard bumped the final CDF entry, which
// is exactly that bug for an all-ones state outside the support).
// Zero-probability states inside the support have cdf[k] == cdf[k-1] and
// are correctly skipped by the strict inequality.
func sampleCDF(cdf []float64, lastPos int, u float64) uint64 {
	k := sort.Search(len(cdf), func(i int) bool { return cdf[i] > u })
	if k > lastPos {
		k = lastPos
	}
	return uint64(k)
}
