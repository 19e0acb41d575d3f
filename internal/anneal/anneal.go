// Package anneal implements the simulated annealing sampler backing the
// middle layer's annealing path — the substitute for D-Wave Ocean's `neal`
// simulated annealer, which is itself a classical Metropolis sampler.
//
// Sample draws num_reads independent anneals of an Ising model, each a
// sequence of Metropolis sweeps under a rising inverse-temperature
// schedule, and aggregates the observed configurations with their
// energies. Reads run in parallel across at most Params.Workers goroutines
// (the serving layer's shard grant); determinism is preserved by deriving
// one child RNG per read up front, so results do not depend on the width.
//
// Every sampler reads the couplings straight from the model's own table,
// its compressed sparse rows (ising.Model.Row: for spin i, its partners in
// ascending order and the couplings beside them), shared read-only by all
// reads, so a local-field update on a flip is a walk over two contiguous
// slices. The annealer also tabulates its inverse-temperature schedule
// once per call, one beta per sweep, instead of a Pow per sweep per read.
// Both compute the very float expressions the map-based samplers computed,
// in the same order, so samples are bit-identical to theirs
// (testdata/sample_golden.txt pins them).
//
// # Metropolis acceptance
//
// A move of energy change delta is accepted when delta < 0, with
// probability ½ when delta == 0, and with probability exp(−β·delta)
// when delta > 0, each non-negative case drawing one Float64 from the
// read's stream (Isakov, Zintchenko, Rønnow and Troyer, Comput. Phys.
// Commun. 192 (2015), tabulate the same factors). When every h_i and J_ij
// is an integer, every local field is an integer, so a delta ≥ 0 is
// exactly 2k in float64 for some k in 0..L, L = max_i(|h_i| + Σ_j |J_ij|).
// For such a model with L ≤ 64, SampleModel fills one row per sweep once
// per call — ½ at k = 0 and exp(−β_s·2k) at k = 1..L, each computed by
// the very function the math.Exp path calls — and the reads look their
// probability up instead of calling math.Exp. The table holds at most maxAcceptEntries
// values (512 KiB, which covers every such model at the default 1000
// sweeps), whatever Sweeps is; a larger one, a model with a fractional
// term and a model with L > 64 take the math.Exp path. Both paths go
// through one inlined acceptance function, draw the same numbers in the
// same order and compare them with bit-equal probabilities, so a read's
// samples do not depend on which path it took.
//
// The package also provides the classical baselines (random sampling,
// greedy descent, tabu search) used by the E11 ablation benchmarks.
package anneal

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ctxdesc"
	"repro/internal/ising"
	"repro/internal/rng"
)

// Defaults applied when the context leaves fields zero.
const (
	DefaultSweeps  = 1000
	DefaultBetaMin = 0.1
	DefaultBetaMax = 5.0
)

// Params configure a sampling run (mirroring the context descriptor's
// anneal block).
type Params struct {
	NumReads int // at most ctxdesc.MaxAnnealReads
	Sweeps   int // 0 = DefaultSweeps; at most ctxdesc.MaxAnnealSweeps
	BetaMin  float64
	BetaMax  float64
	Schedule string // "geometric" (default) or "linear"
	Seed     uint64
	// Workers caps the goroutines the reads fan out over (0 = GOMAXPROCS):
	// how the run is scheduled, never what it samples.
	Workers int
}

func (p Params) withDefaults(m *ising.Model) (Params, error) {
	if p.NumReads < 1 {
		return p, fmt.Errorf("anneal: num_reads %d < 1", p.NumReads)
	}
	if p.NumReads > ctxdesc.MaxAnnealReads {
		return p, fmt.Errorf("anneal: num_reads %d exceeds %d", p.NumReads, ctxdesc.MaxAnnealReads)
	}
	if p.Sweeps == 0 {
		p.Sweeps = DefaultSweeps
	}
	if p.Sweeps < 0 {
		return p, fmt.Errorf("anneal: negative sweeps %d", p.Sweeps)
	}
	if p.Sweeps > ctxdesc.MaxAnnealSweeps {
		return p, fmt.Errorf("anneal: sweeps %d exceeds %d", p.Sweeps, ctxdesc.MaxAnnealSweeps)
	}
	scale := m.MaxAbsCoupling()
	if scale == 0 {
		scale = 1
	}
	if p.BetaMin == 0 {
		p.BetaMin = DefaultBetaMin / scale
	}
	if p.BetaMax == 0 {
		p.BetaMax = DefaultBetaMax / scale * 4
	}
	if p.BetaMin < 0 || p.BetaMax < p.BetaMin {
		return p, fmt.Errorf("anneal: invalid beta range [%v, %v]", p.BetaMin, p.BetaMax)
	}
	switch p.Schedule {
	case "":
		p.Schedule = "geometric"
	case "geometric", "linear":
	default:
		return p, fmt.Errorf("anneal: unknown schedule %q", p.Schedule)
	}
	return p, nil
}

// schedule returns the inverse temperature of every sweep, betaAt's values
// in sweep order; withDefaults has bounded their number.
func schedule(p Params) []float64 {
	betas := make([]float64, p.Sweeps)
	for s := range betas {
		betas[s] = betaAt(p, s, p.Sweeps)
	}
	return betas
}

// betaAt returns the inverse temperature for sweep s of total.
func betaAt(p Params, s, total int) float64 {
	if total <= 1 {
		return p.BetaMax
	}
	t := float64(s) / float64(total-1)
	switch p.Schedule {
	case "linear":
		return p.BetaMin + t*(p.BetaMax-p.BetaMin)
	default: // geometric
		if p.BetaMin <= 0 {
			return p.BetaMin + t*(p.BetaMax-p.BetaMin)
		}
		return p.BetaMin * math.Pow(p.BetaMax/p.BetaMin, t)
	}
}

// Sample is one aggregated configuration.
type Sample struct {
	Mask        uint64 // bit i set → spin i = +1
	Energy      float64
	Occurrences int
}

// Result aggregates a sampling run, sorted by ascending energy (ties by
// mask).
type Result struct {
	Samples  []Sample
	NumReads int
}

// Best returns the lowest-energy sample. It panics on an empty result
// (impossible for NumReads >= 1).
func (r *Result) Best() Sample { return r.Samples[0] }

// MeanEnergy returns the occurrence-weighted mean energy over all reads.
func (r *Result) MeanEnergy() float64 {
	total := 0.0
	n := 0
	for _, s := range r.Samples {
		total += s.Energy * float64(s.Occurrences)
		n += s.Occurrences
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// GroundProbability returns the fraction of reads that landed within tol
// of the given energy.
func (r *Result) GroundProbability(groundEnergy, tol float64) float64 {
	hits := 0
	n := 0
	for _, s := range r.Samples {
		n += s.Occurrences
		if math.Abs(s.Energy-groundEnergy) <= tol {
			hits += s.Occurrences
		}
	}
	if n == 0 {
		return 0
	}
	return float64(hits) / float64(n)
}

// SampleModel runs simulated annealing on the model.
func SampleModel(m *ising.Model, p Params) (*Result, error) {
	p, err := p.withDefaults(m)
	if err != nil {
		return nil, err
	}
	if m.N == 0 {
		return nil, fmt.Errorf("anneal: empty model")
	}
	if m.N > 63 {
		return nil, fmt.Errorf("anneal: model size %d exceeds 63-spin mask limit", m.N)
	}

	// Derive per-read RNGs sequentially for determinism, then fan out.
	master := rng.New(p.Seed)
	readRNGs := make([]*rng.Rand, p.NumReads)
	for i := range readRNGs {
		readRNGs[i] = master.Child()
	}

	masks := make([]uint64, p.NumReads)
	betas := schedule(p)
	table := newAcceptTable(m, betas)
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, p.NumReads)
	var wg sync.WaitGroup
	chunk := (p.NumReads + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, p.NumReads)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				masks[i] = annealOnce(m, betas, table, readRNGs[i])
			}
		}(lo, hi)
	}
	wg.Wait()

	agg := map[uint64]int{}
	for _, mask := range masks {
		agg[mask]++
	}
	res := &Result{NumReads: p.NumReads}
	for mask, occ := range agg {
		res.Samples = append(res.Samples, Sample{Mask: mask, Energy: m.EnergyBits(mask), Occurrences: occ})
	}
	sortSamples(res.Samples)
	return res, nil
}

func sortSamples(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Energy != samples[j].Energy {
			return samples[i].Energy < samples[j].Energy
		}
		return samples[i].Mask < samples[j].Mask
	})
}

// maxAcceptEntries bounds an acceptTable: 2^16 probabilities, 512 KiB,
// whatever Sweeps is. It covers every model with L ≤ 64 at the default
// 1000 sweeps.
const maxAcceptEntries = 1 << 16

// acceptTable holds an integer-valued model's Metropolis acceptance
// probabilities, one row of stride = L+1 entries per sweep: row s holds
// metropolis(2k, β_s) — ½ at k = 0, exp(−β_s·2k) at k = 1..L — so each
// entry is the value the math.Exp path computes for a delta of 2k. The
// zero value is no table.
type acceptTable struct {
	p      []float64
	stride int
}

// newAcceptTable tabulates the model's acceptance probabilities under
// betas when every h_i and J_ij is an integer and L = max_i(|h_i| +
// Σ_j |J_ij|) ≤ 64: each local field is then an integer in [−L, L], so a
// delta ≥ 0 is exactly 2k in float64 for some k in 0..L. It returns no
// table for any other model, and when the table would hold more than
// maxAcceptEntries values.
func newAcceptTable(m *ising.Model, betas []float64) acceptTable {
	bound := 0.0
	for i := 0; i < m.N; i++ {
		sum := math.Abs(m.H[i])
		_, js := m.Row(i)
		for _, j := range js {
			if !integral(j) {
				return acceptTable{}
			}
			sum += math.Abs(j)
		}
		if !integral(m.H[i]) || sum > 64 {
			return acceptTable{}
		}
		bound = max(bound, sum)
	}
	stride := int(bound) + 1
	if len(betas)*stride > maxAcceptEntries {
		return acceptTable{}
	}
	t := acceptTable{p: make([]float64, len(betas)*stride), stride: stride}
	for s, beta := range betas {
		row := t.row(s)
		for k := range row {
			row[k] = metropolis(float64(2*k), beta)
		}
	}
	return t
}

// row returns sweep s's probabilities, nil without a table.
func (t acceptTable) row(s int) []float64 {
	if t.p == nil {
		return nil
	}
	return t.p[s*t.stride : (s+1)*t.stride]
}

// integral reports whether v is a finite integer.
func integral(v float64) bool { return v == math.Trunc(v) && !math.IsInf(v, 0) }

// annealOnce runs one read: random start, one Metropolis sweep per beta,
// local fields maintained incrementally. A move downhill always goes;
// any other draws once and goes with its acceptance probability, read
// from table's row for the sweep when there is one.
func annealOnce(m *ising.Model, betas []float64, table acceptTable, r *rng.Rand) uint64 {
	s := randomSpins(m.N, r)
	fields := localFields(m, s)
	for t, beta := range betas {
		row := table.row(t)
		for i := range s {
			delta := -2 * float64(s[i]) * fields[i]
			if delta < 0 || delta >= 0 && r.Float64() < acceptance(delta, beta, row) {
				flip(m, s, fields, i)
			}
		}
	}
	return ising.BitsFromSpins(s)
}

// acceptance is the Metropolis acceptance probability of a move of
// energy change delta ≥ 0 at inverse temperature beta, from row when row
// is set (delta is then 2k exactly, and row[k] holds that very value) and
// from metropolis otherwise. It is the one acceptance rule of both paths.
func acceptance(delta, beta float64, row []float64) float64 {
	if row != nil {
		return row[int(delta)/2]
	}
	return metropolis(delta, beta)
}

// metropolis computes acceptance's probability: exp(−beta·delta), and ½
// for a zero-cost move. Accepting ties deterministically in a fixed
// sweep order creates limit cycles on plateaus (e.g. the 4-cycle's
// energy-0 band) that never descend to the ground state. It is kept out
// of line so that acceptance inlines into the sweep.
//
//go:noinline
func metropolis(delta, beta float64) float64 {
	if delta == 0 {
		return 0.5
	}
	return math.Exp(-beta * delta)
}

// localFields returns every spin's local field h_i + Σ_j J_ij s_j, the sum
// taken in partner order.
func localFields(m *ising.Model, s []int8) []float64 {
	fields := make([]float64, m.N)
	for i := range fields {
		f := m.H[i]
		nbr, js := m.Row(i)
		for k, p := range nbr {
			f += js[k] * float64(s[p])
		}
		fields[i] = f
	}
	return fields
}

// flip negates spin i and moves its partners' local fields with it.
func flip(m *ising.Model, s []int8, fields []float64, i int) {
	old := s[i]
	s[i] = -old
	nbr, js := m.Row(i)
	for k, p := range nbr {
		fields[p] += -2 * js[k] * float64(old)
	}
}
