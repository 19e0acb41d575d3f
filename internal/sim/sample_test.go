package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// The reference copies below, with referenceCDF (run_test.go), are the
// sampling stage as it ran before the shots were tallied by basis index
// and the CDF chains interleaved: one sort.Search with a closure per
// shot, a register projection through the measurement map and a map
// increment per shot, and a CDF built one block at a time. The tests hold
// the engine to them bit for bit.

// refSampleCDF is the sort.Search inversion sampleCDF replaces.
func refSampleCDF(cdf []float64, lastPos int, u float64) uint64 {
	k := sort.Search(len(cdf), func(i int) bool { return cdf[i] > u })
	if k > lastPos {
		k = lastPos
	}
	return uint64(k)
}

// refQubits returns mm's measured qubits in ascending order.
func refQubits(mm map[int]int) []int {
	qubits := make([]int, 0, len(mm))
	for q := range mm {
		qubits = append(qubits, q)
	}
	sort.Ints(qubits)
	return qubits
}

// refProjectRegister is the per-bit map projection projectRegister
// replaces, with its draw order.
func refProjectRegister(k uint64, qubits []int, mm map[int]int, flip float64, r *rng.Rand) uint64 {
	var reg uint64
	for _, q := range qubits {
		bit := k >> uint(q) & 1
		if flip > 0 && r.Float64() < flip {
			bit ^= 1
		}
		if bit == 1 {
			reg |= 1 << uint(mm[q])
		}
	}
	return reg
}

// refCounts is the per-shot sampling loop runner.Run ran, over the CDF
// referenceCDF builds: with streams nil every shot draws from
// rng.New(seed) scaled by the total mass, and otherwise shot s draws from
// streams[s], unscaled, and flips its measured bits from the same stream.
func refCounts(cdf []float64, acc float64, lastPos int, mm map[int]int, shots int, seed uint64, streams []*rng.Rand, flip float64) Counts {
	counts := Counts{}
	if len(mm) == 0 || shots == 0 {
		return counts
	}
	qubits := refQubits(mm)
	draws, scale := rng.New(seed), acc
	if streams != nil {
		scale = 1
	}
	for shot := 0; shot < shots; shot++ {
		if streams != nil {
			draws = streams[shot]
		}
		k := refSampleCDF(cdf, lastPos, draws.Float64()*scale)
		counts[refProjectRegister(k, qubits, mm, flip, draws)]++
	}
	return counts
}

// sampleCircuit is a random circuit on n qubits whose measurements take
// the given shape: "identity" measures qubit q into clbit q, "permuted"
// measures every qubit into a shuffled clbit, "partial" measures about
// half the qubits, in a shuffled order, onto clbits past the qubit count.
// Every qubit gets a rotation, so the distribution is spread out and
// irrational.
func sampleCircuit(seed int64, n int, shape string) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	c := circuit.New(n, 2*n)
	for q := 0; q < n; q++ {
		c.RY(0.1+2.9*r.Float64(), q)
	}
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
		c.RZ(r.Float64(), q+1)
	}
	for q := 0; q < n; q += 2 {
		c.RX(0.3+r.Float64(), q)
	}
	switch shape {
	case "identity":
		c.MeasureAll()
	case "permuted":
		perm := r.Perm(n)
		for q := 0; q < n; q++ {
			c.Measure(q, perm[q])
		}
	case "partial":
		for _, q := range r.Perm(n)[:max(1, n/2)] {
			c.Measure(q, n+r.Intn(n))
		}
	}
	return c
}

// TestCountsMatchPerShotReference holds runner.Run's counts — tallied by
// index for a plain run, per shot for a readout-only one — to the
// per-shot reference loop over the reference CDF of the evolved state,
// for every measurement shape, shard grant and shot count listed, and
// each flip probability of a readout-only run. The plain runs take and
// leave spare arenas, so later runs count on a tally scratch earlier ones
// left dirty. The shot counts put n ≤ 13 on the dense histogram and
// n ≥ 14, or a single shot past n = 3, on the sort.
func TestCountsMatchPerShotReference(t *testing.T) {
	for _, n := range []int{1, 4, 8, 12, 14, 20} {
		for _, shape := range []string{"identity", "permuted", "partial"} {
			c := sampleCircuit(int64(7*n+len(shape)), n, shape)
			pl := mustCompile(t, c)
			mm := c.MeasureMap()
			_, st := runKept(t, c, pl, Options{Shards: 1})
			cdf, acc, lastPos := referenceCDF(st)
			for _, shards := range []int{1, 2, 3} {
				for _, shots := range []int{0, 1, 1024} {
					name := fmt.Sprintf("n=%d %s shards=%d shots=%d", n, shape, shards, shots)
					opts := Options{Shots: shots, Seed: uint64(31 * n), Shards: shards}
					res, _ := runKept(t, c, pl, opts)
					if want := refCounts(cdf, acc, lastPos, mm, shots, opts.Seed, nil, 0); !reflect.DeepEqual(res.Counts, want) {
						t.Fatalf("%s: counts %v, reference %v", name, res.Counts, want)
					}
					for _, flip := range []float64{0.02, 0.5} {
						streams, refStreams := childStreams(opts.Seed, shots), childStreams(opts.Seed, shots)
						res := runReadout(t, c, pl, opts, &readout{streams: streams, flip: flip})
						if want := refCounts(cdf, acc, lastPos, mm, shots, 0, refStreams, flip); !reflect.DeepEqual(res.Counts, want) {
							t.Fatalf("%s flip=%v: counts %v, reference %v", name, flip, res.Counts, want)
						}
					}
				}
			}
		}
	}
}

// childStreams derives shots child streams from seed, as RunNoisy does.
func childStreams(seed uint64, shots int) []*rng.Rand {
	master := rng.New(seed)
	streams := make([]*rng.Rand, shots)
	for s := range streams {
		streams[s] = master.Child()
	}
	return streams
}

// runReadout runs pl once with a readout-only sampling on a fresh runner.
func runReadout(t *testing.T, c *circuit.Circuit, pl *Plan, opts Options, ro *readout) *Result {
	t.Helper()
	r, err := newRunner(c.NumQubits, opts.Shards)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run(c, pl, opts, ro)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBuildCDFMatchesOneBlockAtATime holds buildCDF's interleaved chains
// to the serial one-block-at-a-time build bit for bit — every entry, the total
// mass and the last positive index — at n ∈ {4, 12, 16, 20} and shards
// {1, 2, 3}, on a state with zero-probability stretches at its top.
func TestBuildCDFMatchesOneBlockAtATime(t *testing.T) {
	for _, n := range []int{4, 12, 16, 20} {
		c := sampleCircuit(int64(n), n, "identity")
		st, err := Evolve(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := st.Dim() - st.Dim()/8; i < st.Dim(); i++ {
			st.re[i], st.im[i] = 0, 0
		}
		for _, shards := range []int{1, 2, 3} {
			want, wantAcc, wantLast := referenceCDF(st)
			r := runner{n: n, pool: newShardPool(shards)}
			got, acc, last := r.buildCDF(st)
			r.Close()
			if math.Float64bits(acc) != math.Float64bits(wantAcc) || last != wantLast {
				t.Fatalf("n=%d shards=%d: mass %v last %d, reference %v %d", n, shards, acc, last, wantAcc, wantLast)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d shards=%d: cdf[%d] = %v, reference %v", n, shards, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSampleCDFMatchesSortSearch holds the inlined search to sort.Search
// and its clamp on every draw boundary of a small CDF with flat stretches,
// a drifted top and NaN.
func TestSampleCDFMatchesSortSearch(t *testing.T) {
	cdf := []float64{0, 0.1, 0.1, 0.3, 0.3, 0.3, 0.7, 0.9, 0.9, 0.95}
	us := []float64{-1, 0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.93, 0.95, 0.99, 1, math.NaN(), math.Inf(1)}
	for lastPos := range cdf {
		for end := 0; end <= len(cdf); end++ {
			for _, u := range us {
				want := refSampleCDF(cdf[:end], lastPos, u)
				if got := sampleCDF(cdf[:end], lastPos, u); uint64(got) != want {
					t.Fatalf("len %d lastPos %d u %v: %d, sort.Search %d", end, lastPos, u, got, want)
				}
			}
		}
	}
}

// TestSamplerScratchStaysSmall: the tally scratch a warm arena keeps is
// at most min(2^n, denseTally·shots) entries.
func TestSamplerScratchStaysSmall(t *testing.T) {
	const n = 16
	c := sampleCircuit(5, n, "identity")
	pl := mustCompile(t, c)
	r, err := newRunner(n, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, shots := range []int{64, 1024} {
		if _, err := r.Run(c, pl, Options{Shots: shots, Seed: 2}, nil); err != nil {
			t.Fatal(err)
		}
		if limit := min(1<<n, denseTally*shots); cap(r.tally) > limit {
			t.Fatalf("shots=%d: scratch holds %d entries, more than %d", shots, cap(r.tally), limit)
		}
	}
}
