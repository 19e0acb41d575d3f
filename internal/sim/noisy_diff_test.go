package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// runNoisyReference is the trajectory engine as it ran before shots shared
// their error-free prefix: every shot resets one arena to |0…0⟩ and walks
// the whole unfused plan, drawing after each kernel and applying a Pauli
// where a draw fires, then samples. It runs all shots serially on one
// shard (counts do not depend on the grant) and reports the error of the
// first shot that fails, which is what RunNoisy's contiguous worker split
// reports for any grant.
func runNoisyReference(c *circuit.Circuit, noise NoiseModel, shots int, seed uint64) (Counts, error) {
	np, err := compileNoisy(c, noise)
	if err != nil {
		return nil, err
	}
	mm := c.MeasureMap()
	qubits := make([]int, 0, len(mm))
	for q := range mm {
		qubits = append(qubits, q)
	}
	sort.Ints(qubits)
	master := rng.New(seed)
	rngs := make([]*rng.Rand, shots)
	for shot := range rngs {
		rngs[shot] = master.Child()
	}
	runner, err := newRunner(np.pl.n, 1)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	width, sweep := runner.pool.shards, runner.pool.do
	counts := Counts{}
	for _, r := range rngs {
		st, err := runner.reset()
		if err != nil {
			return nil, err
		}
		for i := range np.pl.kernels {
			step := &np.steps[i]
			if err := np.pl.kernels[i].apply(st, width, sweep); err != nil {
				return nil, fmt.Errorf("sim: instruction %d: %w", step.instr, err)
			}
			if step.p == 0 {
				continue
			}
			for _, q := range step.qubits {
				if r.Float64() < step.p {
					if err := np.paulis[3*q+r.Intn(3)].apply(st, width, sweep); err != nil {
						return nil, err
					}
				}
			}
		}
		if len(mm) == 0 {
			continue
		}
		k := sampleIndex(st, r)
		counts[refProjectRegister(k, qubits, mm, noise.ReadoutFlip, r)]++
	}
	return counts, nil
}

// diffCircuit is a random circuit over every kernel class the trajectory
// engine runs: an opening Init (valid on every trajectory), a random mixed
// body, a Permute and a rotation layer. Half of the circuits on three or
// more qubits keep their top qubit (two on four or more) out of the body;
// each such qubit in turn passes through two identity gates and is then
// Init-ed. On the error-free path it is still |0⟩ there, so an init fails
// exactly on the trajectories that drew an X or Y on its identities, and
// with two of them different shots fail at different instructions.
func diffCircuit(r *rand.Rand, n int, measure bool) *circuit.Circuit {
	c := circuit.New(n, n)
	if err := c.Init([]int{0}, []complex128{0.6, 0.8i}); err != nil {
		panic(err)
	}
	spare := 0
	if n >= 3 && r.Intn(2) == 0 {
		spare = min(2, n-2)
	}
	c.Instrs = append(c.Instrs, randomMixedCircuit(r, n-spare, 6+2*n).Instrs...)
	for q := n - 1; q >= n-spare; q-- {
		c.Gate("id", []int{q}).Gate("id", []int{q})
		if err := c.Init([]int{q}, []complex128{0.8, 0.6}); err != nil {
			panic(err)
		}
		c.CX(q, 0)
	}
	if err := c.Permute([]int{n - 1, 0}, []uint64{2, 0, 3, 1}); err != nil {
		panic(err)
	}
	for q := 0; q < n; q++ {
		c.RY(0.3+0.1*float64(q), q)
	}
	if measure {
		c.MeasureAll()
	}
	return c
}

// TestRunNoisyMatchesPerShotReference holds the prefix-sharing trajectory
// engine to the per-shot loop it replaced: bit-identical counts, and the
// identical error when an init fails on some trajectories, over random
// circuits of 2–10 qubits, gate-error rates from 0 to 0.3 (so the first
// error lands anywhere from the first kernel to never), grants 1, 2 and 4,
// 0, 1, 7 and 128 shots, and circuits that measure nothing.
func TestRunNoisyMatchesPerShotReference(t *testing.T) {
	rates := []float64{0, 0.001, 0.02, 0.1, 0.3}
	flips := []float64{0, 0.02, 0.5}
	r := rand.New(rand.NewSource(2026))
	var failed, passed int
	for trial := 0; trial < 48; trial++ {
		n := 2 + r.Intn(9)
		measure := trial%8 != 7
		c := diffCircuit(r, n, measure)
		nm := NoiseModel{Prob1Q: rates[r.Intn(len(rates))], Prob2Q: rates[r.Intn(len(rates))], ReadoutFlip: flips[r.Intn(len(flips))]}
		if nm.Prob1Q == 0 && nm.Prob2Q == 0 {
			nm.Prob2Q = 0.3 // keep the case on the trajectory engine
		}
		seed := r.Uint64()
		for _, shots := range []int{0, 1, 7, 128} {
			want, wantErr := runNoisyReference(c, nm, shots, seed)
			if wantErr != nil {
				failed++
			} else {
				passed++
			}
			for _, grant := range []int{1, 2, 4} {
				res, err := RunNoisy(c, nm, Options{Shots: shots, Seed: seed, Shards: grant})
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("trial %d (n=%d %+v) shots=%d grant=%d: error %v, reference %v", trial, n, nm, shots, grant, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !maps.Equal(res.Counts, want) {
					t.Fatalf("trial %d (n=%d %+v) shots=%d grant=%d: counts %v, reference %v", trial, n, nm, shots, grant, res.Counts, want)
				}
			}
		}
	}
	// The draw must exercise both outcomes, or half the contract is untested.
	if failed == 0 || passed == 0 {
		t.Fatalf("%d failing and %d passing cases: widen the draw", failed, passed)
	}
}
