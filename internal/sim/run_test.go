package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/circuit"
)

func TestRunBellCounts(t *testing.T) {
	c := circuit.New(2, 2)
	c.H(0).CX(0, 1).MeasureAll()
	res, err := Run(c, Options{Shots: 10000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 10000 {
		t.Errorf("total shots %d", res.Counts.TotalShots())
	}
	if len(res.Counts) != 2 {
		t.Fatalf("Bell circuit produced %d outcomes: %v", len(res.Counts), res.Counts)
	}
	for _, k := range []uint64{0, 3} {
		frac := float64(res.Counts[k]) / 10000
		if math.Abs(frac-0.5) > 0.03 {
			t.Errorf("outcome %d frequency %v, want ~0.5", k, frac)
		}
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	c := circuit.New(3, 3)
	c.H(0).H(1).H(2).MeasureAll()
	a, err := Run(c, Options{Shots: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, Options{Shots: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Counts) != len(b.Counts) {
		t.Fatal("same seed, different outcome sets")
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			t.Fatalf("same seed, different counts at %d: %d vs %d", k, v, b.Counts[k])
		}
	}
	c2, err := Run(c, Options{Shots: 500, Seed: 8})
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
		t.Error("different seeds produced identical counts")
	}
}

func TestRunPartialMeasurement(t *testing.T) {
	// Measure only qubit 1 into clbit 0.
	c := circuit.New(2, 1)
	c.X(1)
	c.H(0)
	c.Measure(1, 0)
	res, err := Run(c, Options{Shots: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[1] != 100 {
		t.Errorf("expected all shots = 1, got %v", res.Counts)
	}
}

func TestRunClbitRemapping(t *testing.T) {
	// Qubit 0 -> clbit 2, qubit 2 -> clbit 0: X on qubit 0 should set
	// clbit 2 (value 4).
	c := circuit.New(3, 3)
	c.X(0)
	c.Measure(0, 2)
	c.Measure(2, 0)
	res, err := Run(c, Options{Shots: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[4] != 10 {
		t.Errorf("clbit remap wrong: %v", res.Counts)
	}
}

func TestRunRejectsMidCircuitMeasurement(t *testing.T) {
	c := circuit.New(1, 1)
	c.Measure(0, 0)
	c.H(0)
	if _, err := Run(c, Options{Shots: 1}); err == nil {
		t.Error("gate after measurement accepted")
	}
}

func TestRunNoMeasurements(t *testing.T) {
	c := circuit.New(2, 0)
	c.H(0)
	res, err := Run(c, Options{Shots: 100, Seed: 0, KeepState: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) != 0 {
		t.Error("unmeasured circuit produced counts")
	}
	if res.Final == nil {
		t.Fatal("KeepState did not keep state")
	}
	if math.Abs(res.Final.Probability(0)-0.5) > 1e-12 {
		t.Error("final state wrong")
	}
}

func TestRunNegativeShots(t *testing.T) {
	c := circuit.New(1, 1)
	if _, err := Run(c, Options{Shots: -1}); err == nil {
		t.Error("negative shots accepted")
	}
}

func TestRunPermuteAndInitInstructions(t *testing.T) {
	c := circuit.New(2, 2)
	if err := c.Init([]int{0, 1}, []complex128{0, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Permute([]int{0, 1}, []uint64{1, 2, 3, 0}); err != nil {
		t.Fatal(err)
	}
	c.MeasureAll()
	res, err := Run(c, Options{Shots: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// init put us at index 1; permute maps 1 -> 2.
	if res.Counts[2] != 50 {
		t.Errorf("counts = %v, want all at 2", res.Counts)
	}
}

func TestCountsHelpers(t *testing.T) {
	cnt := Counts{5: 10, 3: 30, 9: 30}
	if cnt.TotalShots() != 70 {
		t.Errorf("TotalShots = %d", cnt.TotalShots())
	}
	keys := cnt.Keys()
	if len(keys) != 3 || keys[0] != 3 || keys[1] != 5 || keys[2] != 9 {
		t.Errorf("Keys = %v", keys)
	}
	k, n, ok := cnt.MostFrequent()
	if !ok || k != 3 || n != 30 {
		t.Errorf("MostFrequent = %d, %d, %v (tie should pick lowest key)", k, n, ok)
	}
	if _, _, ok := (Counts{}).MostFrequent(); ok {
		t.Error("MostFrequent on empty counts reported ok")
	}
}

// TestSampleCDFClampsDrift is the regression test for the sampling drift
// guard: when float rounding leaves the top of the CDF below the drawn u,
// the inversion must land on the last positive-probability basis state —
// never on a zero-probability state past it (the old guard bumped the
// final CDF entry, steering exactly such draws onto the all-ones state).
func TestSampleCDFClampsDrift(t *testing.T) {
	// States 2 and 3 have zero probability; state 1 is the last with mass.
	cdf := []float64{0.5, 1.0, 1.0, 1.0}
	lastPos := 1
	if k := sampleCDF(cdf, lastPos, 1.0); k != 1 {
		t.Errorf("drifted draw u=1.0 sampled index %d, want 1", k)
	}
	if k := sampleCDF(cdf, lastPos, 0.25); k != 0 {
		t.Errorf("u=0.25 sampled index %d, want 0", k)
	}
	if k := sampleCDF(cdf, lastPos, 0.75); k != 1 {
		t.Errorf("u=0.75 sampled index %d, want 1", k)
	}
	// A zero-probability gap inside the support is skipped, not clamped.
	gap := []float64{0.5, 0.5, 1.0, 1.0}
	if k := sampleCDF(gap, 2, 0.7); k != 2 {
		t.Errorf("gap draw sampled index %d, want 2", k)
	}
}

// TestRunCDFLastPositiveIndex checks the Run-level behavior on a state
// whose trailing basis states carry no probability: no shot may land past
// the support, for any seed tried.
func TestRunCDFLastPositiveIndex(t *testing.T) {
	c := circuit.New(3, 3)
	c.H(0) // support = {|000⟩, |001⟩}; indices 2..7 have zero probability
	c.MeasureAll()
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Run(c, Options{Shots: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for k := range res.Counts {
			if k > 1 {
				t.Fatalf("seed %d: sampled zero-probability outcome %d", seed, k)
			}
		}
	}
}

func TestEvolveQFTOnZeroIsUniform(t *testing.T) {
	// The E4 primitive: QFT|0…0⟩ = uniform superposition, here built from
	// raw gates (H + controlled phases), 5 qubits.
	n := 5
	c := circuit.New(n, 0)
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			c.CPhase(math.Pi/math.Pow(2, float64(i-j)), j, i)
		}
	}
	st, err := Evolve(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / float64(st.Dim())
	for k := 0; k < st.Dim(); k++ {
		if math.Abs(st.Probability(uint64(k))-want) > 1e-12 {
			t.Fatalf("QFT|0⟩ not uniform at %d: %v", k, st.Probability(uint64(k)))
		}
	}
}

// referenceCDF is the pre-optimization buildCDF algorithm, serial and
// spelled out: per-block left-to-right probability sums, serial block
// offsets, then a second Probability sweep writing the prefix. The
// production buildCDF computes each probability once (stashing it in the
// cdf slice between passes); this reference recomputes it, so agreement
// must be bit-exact or the single-sweep rewrite changed the summation.
func referenceCDF(st *State) (cdf []float64, acc float64, lastPos int) {
	dim := st.Dim()
	cdf = make([]float64, dim)
	nBlocks := (dim + cdfBlock - 1) / cdfBlock
	blockSum := make([]float64, nBlocks)
	for b := 0; b < nBlocks; b++ {
		sum := 0.0
		for i := b * cdfBlock; i < min((b+1)*cdfBlock, dim); i++ {
			p := st.Probability(uint64(i))
			sum += p
			if p > 0 {
				lastPos = i
			}
		}
		blockSum[b] = sum
	}
	for b, s := range blockSum {
		blockSum[b] = acc
		acc += s
	}
	for b := 0; b < nBlocks; b++ {
		run := blockSum[b]
		for i := b * cdfBlock; i < min((b+1)*cdfBlock, dim); i++ {
			run += st.Probability(uint64(i))
			cdf[i] = run
		}
	}
	return cdf, acc, lastPos
}

// TestBuildCDFSingleSweepDeterminism pins the buildCDF rewrite (one
// Probability evaluation per amplitude instead of two) to the fixed-block
// summation order: for a 13-qubit state spanning multiple 4096-entry
// blocks with irrational amplitudes, the CDF must be bit-identical to the
// two-sweep reference for every shard count, and sampled counts must not
// depend on the shard grant.
func TestBuildCDFSingleSweepDeterminism(t *testing.T) {
	c := circuit.New(13, 13)
	for q := 0; q < 13; q++ {
		c.RY(0.137+0.211*float64(q), q)
	}
	for q := 0; q < 12; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < 13; q += 2 {
		c.RY(0.731*float64(q+1), q)
	}
	st, err := Evolve(c)
	if err != nil {
		t.Fatal(err)
	}
	refCDF, refAcc, refLast := referenceCDF(st)
	for _, shards := range []int{1, 3, 8} {
		pool := newShardPool(shards)
		cdf, acc, lastPos := (&Runner{pool: pool}).buildCDF(st)
		pool.close()
		if acc != refAcc {
			t.Fatalf("shards=%d: total mass %v, reference %v", shards, acc, refAcc)
		}
		if lastPos != refLast {
			t.Fatalf("shards=%d: lastPos %d, reference %d", shards, lastPos, refLast)
		}
		for i := range cdf {
			if cdf[i] != refCDF[i] {
				t.Fatalf("shards=%d: cdf[%d] = %v, reference %v (bit drift)", shards, i, cdf[i], refCDF[i])
			}
		}
	}

	// End to end: counts are identical across shard grants.
	c.MeasureAll()
	base, err := Run(c, Options{Shots: 2000, Seed: 99, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{3, 8} {
		res, err := Run(c, Options{Shots: 2000, Seed: 99, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Counts, res.Counts) {
			t.Fatalf("counts differ between shards=1 and shards=%d", shards)
		}
	}
}
