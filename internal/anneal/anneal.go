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
// Every sampler reads the model through one coupling table, built once per
// call and shared read-only by all reads: the couplings in compressed
// sparse rows (for spin i, its partners nbr[off[i]:off[i+1]] in
// AdjacencyList's sorted order and the couplings j[off[i]:off[i+1]]
// beside them), so a local-field update on a flip is a walk over two
// contiguous slices instead of a map lookup per partner. The annealer
// also tabulates its inverse-temperature schedule once per call, one beta
// per sweep, instead of a Pow per sweep per read. Both compute the very
// float expressions the map lookups and Pow calls fed, in the same order,
// so samples are bit-identical to the map-based samplers
// (testdata/sample_golden.txt pins them).
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
	NumReads int
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
	cp := newCouplings(m)
	betas := schedule(p)
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
				masks[i] = annealOnce(m.H, &cp, betas, readRNGs[i])
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

// annealOnce runs one read: random start, one Metropolis sweep per beta,
// local fields maintained incrementally.
func annealOnce(h []float64, cp *couplings, betas []float64, r *rng.Rand) uint64 {
	s := randomSpins(len(h), r)
	fields := cp.fields(h, s)
	for _, beta := range betas {
		for i := range s {
			delta := -2 * float64(s[i]) * fields[i]
			// Zero-cost moves accept with probability ½: deterministic
			// acceptance of ties in a fixed sweep order creates limit
			// cycles on plateaus (e.g. the 4-cycle's energy-0 band) that
			// never descend to the ground state.
			accept := delta < 0 ||
				(delta == 0 && r.Float64() < 0.5) ||
				(delta > 0 && r.Float64() < math.Exp(-beta*delta))
			if accept {
				cp.flip(s, fields, i)
			}
		}
	}
	return ising.BitsFromSpins(s)
}

// couplings is a model's coupling matrix in compressed sparse rows: spin
// i's partners are nbr[off[i]:off[i+1]], in AdjacencyList's sorted order,
// and j[k] is its coupling to nbr[k]. Read-only once built.
type couplings struct {
	off []int32
	nbr []int32
	j   []float64
}

func newCouplings(m *ising.Model) couplings {
	adj := m.AdjacencyList()
	cp := couplings{off: make([]int32, m.N+1)}
	for i, row := range adj {
		cp.off[i+1] = cp.off[i] + int32(len(row))
	}
	cp.nbr = make([]int32, 0, cp.off[m.N])
	cp.j = make([]float64, 0, cp.off[m.N])
	for i, row := range adj {
		for _, k := range row {
			cp.nbr = append(cp.nbr, int32(k))
			cp.j = append(cp.j, m.GetJ(i, k))
		}
	}
	return cp
}

// fields returns every spin's local field h_i + Σ_j J_ij s_j, the sum
// taken in partner order.
func (cp *couplings) fields(h []float64, s []int8) []float64 {
	fields := make([]float64, len(h))
	for i := range fields {
		f := h[i]
		for k := cp.off[i]; k < cp.off[i+1]; k++ {
			f += cp.j[k] * float64(s[cp.nbr[k]])
		}
		fields[i] = f
	}
	return fields
}

// flip negates spin i and moves its partners' local fields with it.
func (cp *couplings) flip(s []int8, fields []float64, i int) {
	old := s[i]
	s[i] = -old
	for k := cp.off[i]; k < cp.off[i+1]; k++ {
		fields[cp.nbr[k]] += -2 * cp.j[k] * float64(old)
	}
}
