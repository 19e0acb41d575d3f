package sim

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/rng"
)

// shift is one measured qubit: bit q of a basis index lands on clbit cb
// of the register.
type shift struct{ q, cb uint }

// shiftTable returns a measurement map's qubit→clbit pairs in ascending
// qubit order, the order projectRegister reads them and draws readout
// flips in.
func shiftTable(mm map[int]int) []shift {
	t := make([]shift, 0, len(mm))
	for q, cb := range mm {
		t = append(t, shift{q: uint(q), cb: uint(cb)})
	}
	slices.SortFunc(t, func(a, b shift) int { return cmp.Compare(a.q, b.q) })
	return t
}

// projectRegister maps a sampled basis index onto the classical register
// shifts define, flipping each measured bit with probability flip. The
// draw order — one Float64 per measured qubit, ascending qubit order,
// only when flip > 0 — is part of the seeded-stream contract trajectories
// and readout-only runs share; r may be nil when flip is 0.
func projectRegister(k uint64, shifts []shift, flip float64, r *rng.Rand) uint64 {
	var reg uint64
	for _, s := range shifts {
		bit := k >> s.q & 1
		if flip > 0 && r.Float64() < flip {
			bit ^= 1
		}
		reg |= bit << s.cb
	}
	return reg
}

// sampleCDF inverts the CDF for one draw u: the first index with
// cdf[k] > u, clamped to the last positive-probability index. It probes
// the indices sort.Search probes, in the same order, without the
// closure. The clamp is the float-drift guard: when rounding leaves
// cdf's top fractionally below u, the search lands past every
// positive-probability state, and without the clamp the draw would
// assign mass to a basis state the distribution gives zero probability
// (the old guard bumped the final CDF entry, which is exactly that bug
// for an all-ones state outside the support). Zero-probability states
// inside the support have cdf[k] == cdf[k-1] and are correctly skipped
// by the strict inequality.
func sampleCDF(cdf []float64, lastPos int, u float64) int {
	lo, hi := 0, len(cdf)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if cdf[h] > u {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return min(lo, lastPos)
}

// denseTally sets how countShots tallies: per index in a dense histogram
// when 2^n ≤ denseTally·shots, by sorting the shots' indices otherwise.
// Either way the scratch is at most min(denseTally·shots, 2^n) uint32s,
// 4·2^n bytes at worst, half the CDF beside it.
const denseTally = 8

// countShots draws shots outcomes from cdf with one stream, each draw
// scaled by the total mass acc, and counts them by register value. Shots
// are tallied by basis index first, so each distinct index is projected
// through shifts once, into a Counts map sized for the distinct indices.
// The draws, their order and the indices they select are those of a
// per-shot loop over sampleCDF and projectRegister, so the counts are too.
func (r *runner) countShots(cdf []float64, lastPos int, acc float64, shots int, draws *rng.Rand, shifts []shift) Counts {
	if dim := len(cdf); dim/denseTally <= shots && shots <= math.MaxUint32 {
		hist := r.scratch(dim)
		clear(hist)
		for range shots {
			hist[sampleCDF(cdf, lastPos, draws.Float64()*acc)]++
		}
		distinct := 0
		for _, n := range hist {
			if n != 0 {
				distinct++
			}
		}
		counts := make(Counts, distinct)
		for k, n := range hist {
			if n != 0 {
				counts[projectRegister(uint64(k), shifts, 0, nil)] += int(n)
			}
		}
		return counts
	}
	idx := r.scratch(shots)
	for s := range idx {
		idx[s] = uint32(sampleCDF(cdf, lastPos, draws.Float64()*acc))
	}
	slices.Sort(idx)
	distinct := 1
	for s := 1; s < len(idx); s++ {
		if idx[s] != idx[s-1] {
			distinct++
		}
	}
	counts := make(Counts, distinct)
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && idx[hi] == idx[lo] {
			hi++
		}
		counts[projectRegister(uint64(idx[lo]), shifts, 0, nil)] += hi - lo
		lo = hi
	}
	return counts
}

// scratch returns the arena's tally scratch with n entries, growing it
// when a run needs more than any before it.
func (r *runner) scratch(n int) []uint32 {
	if cap(r.tally) < n {
		r.tally = make([]uint32, n)
	}
	return r.tally[:n]
}
