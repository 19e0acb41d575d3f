package sim

import (
	"time"

	"repro/internal/obs"
)

// Kernel-granular observability. Two layers:
//
//   - Always on: every executed kernel increments a per-kind counter and
//     observes its wall time in a per-kind histogram (the labeled
//     sim_kernels_total / sim_kernel_seconds families below). The
//     instruments are pre-resolved by kind ordinal, so the per-kernel
//     cost is two time.Now calls and three atomic adds — invisible next
//     to a statevector sweep.
//
//   - Opt in (Options.Profile): Plan execution additionally records a
//     per-kernel table — kind, support mask, wall time, and the per-shard
//     sweep times behind it — into a Profile, the document the serving
//     layer attaches to job status next to the span log. Per-shard timing
//     wraps every sweep closure, so it is only paid when requested.

// Kernel kind ordinals for the labeled instrument families. The enum is
// the executor's sweep classification: both permutation shapes (the
// controlled subspace exchange and the full-state relabeling) report as
// "permute", and "monomial" is a two-qubit kernel on the diagonal sweep
// (gate2q one on the dense or a block sweep).
const (
	pkGate1Q = iota
	pkGate2Q
	pkMonomial
	pkDiag
	pkPermute
	pkCtrlPhase
	pkInit
	pkKinds // count
)

// kindNames maps kind ordinals to their label values, in ordinal order.
var kindNames = [pkKinds]string{"gate1q", "gate2q", "monomial", "diag", "permute", "ctrlphase", "init"}

// Always-on per-kind aggregates, registered process-wide like the stage
// histograms in run.go. The value enums here must stay in kindNames'
// ordinal order — At(ordinal) is the zero-alloc hot-path accessor.
var (
	simKernels = obs.Default().CounterFamily("sim_kernels_total",
		"Kernels executed, by kernel kind.",
		"kind", []string{"gate1q", "gate2q", "monomial", "diag", "permute", "ctrlphase", "init"})
	simKernelSeconds = obs.Default().HistogramFamily("sim_kernel_seconds",
		"Per-kernel execution wall time, by kernel kind.", nil,
		"kind", []string{"gate1q", "gate2q", "monomial", "diag", "permute", "ctrlphase", "init"})
)

// kindOrdinal classifies a compiled kernel for the instrument families.
func kindOrdinal(k *kernel) int {
	switch k.kind {
	case kGate1Q:
		return pkGate1Q
	case kGate2Q:
		if k.form == pairDiag {
			return pkMonomial
		}
		return pkGate2Q
	case kDiag:
		return pkDiag
	case kCtrlPerm, kPermute:
		return pkPermute
	case kCtrlPhase:
		return pkCtrlPhase
	default:
		return pkInit
	}
}

// KernelProfile is one row of the per-kernel table: which kernel, what
// it swept, how long, and how evenly the shards shared it.
type KernelProfile struct {
	// Index is the kernel's position in the compiled plan.
	Index int `json:"index"`
	// Kind is the kernel's kind label (gate1q, gate2q, monomial, diag,
	// permute, ctrlphase, init).
	Kind string `json:"kind"`
	// Support is the bitmask of qubits the kernel touches.
	Support uint64 `json:"support"`
	// Ns is the kernel's wall time, including the shard-pool barrier,
	// from the previous kernel's end (the first kernel's from the start
	// of the plan's execution): the rows tile the kernel loop.
	Ns int64 `json:"ns"`
	// ShardMinNs / ShardMaxNs bound the per-shard sweep times. A shard
	// granted no work (a subspace kernel narrower than the pool) counts
	// as zero.
	ShardMinNs int64 `json:"shard_min_ns"`
	ShardMaxNs int64 `json:"shard_max_ns"`
	// Imbalance is max/mean over per-shard times: 1.0 is perfectly
	// balanced, the shard count is the worst case (all work on one
	// shard). 0 when no shard time was measurable.
	Imbalance float64 `json:"imbalance"`
}

// Profile is the kernel-granular execution profile of one plan execution
// (Options.Profile). Its rows tile the kernel loop, so its kernel-time
// total is the "execute" stage's duration less the set-up before the
// first kernel and the flight record after the last.
type Profile struct {
	// Shards is the effective shard count the plan executed across.
	Shards int `json:"shards"`
	// TotalNs is the sum of per-kernel wall times.
	TotalNs int64 `json:"total_ns"`
	// Kernels is the per-kernel table, in execution order.
	Kernels []KernelProfile `json:"kernels"`
}

// execProfiler accumulates the per-kernel table during executeOn. The
// shard slice is written barrier-to-barrier by each worker into its own
// slot, so no synchronization beyond the pool's own barrier is needed.
type execProfiler struct {
	shard   []time.Duration
	kernels []KernelProfile
	total   time.Duration
}

func newExecProfiler(shards, kernels int) *execProfiler {
	return &execProfiler{
		shard:   make([]time.Duration, shards),
		kernels: make([]KernelProfile, 0, kernels),
	}
}

// begin resets the per-shard accumulators for the next kernel.
func (p *execProfiler) begin() {
	for i := range p.shard {
		p.shard[i] = 0
	}
}

// end folds one kernel's timings into the table.
func (p *execProfiler) end(idx int, k *kernel, ord int, d time.Duration) {
	minS, maxS, sum := p.shard[0], p.shard[0], time.Duration(0)
	for _, s := range p.shard {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
		sum += s
	}
	imb := 0.0
	if sum > 0 {
		mean := float64(sum) / float64(len(p.shard))
		imb = float64(maxS) / mean
	}
	p.kernels = append(p.kernels, KernelProfile{
		Index:      idx,
		Kind:       kindNames[ord],
		Support:    uint64(k.support),
		Ns:         d.Nanoseconds(),
		ShardMinNs: minS.Nanoseconds(),
		ShardMaxNs: maxS.Nanoseconds(),
		Imbalance:  imb,
	})
	p.total += d
}

func (p *execProfiler) finish() *Profile {
	return &Profile{Shards: len(p.shard), TotalNs: p.total.Nanoseconds(), Kernels: p.kernels}
}

// ExecuteProfiled is Execute with the kernel-granular profiler on,
// returning the per-kernel table. Profiling never changes amplitudes —
// sweep bodies and shard ranges are identical with and without it.
func (pl *Plan) ExecuteProfiled(st *State, shards int) (*Profile, error) {
	return pl.execute(st, shards, true)
}
