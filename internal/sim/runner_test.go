package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/circuit"
)

// runnerCircuits returns two measured n-qubit circuits with different
// kernel mixes. The second stages through the scratch planes (an init and
// a permutation), so a reused Runner also reuses those.
func runnerCircuits(t testing.TB, n int) (a, b *circuit.Circuit) {
	t.Helper()
	a = deepCircuit(n, 2)
	a.MeasureAll()
	b = circuit.New(n, n)
	if err := b.Init([]int{0, 1}, []complex128{0.5, 0.5i, -0.5, -0.5i}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < n; q++ {
		b.RY(0.13*float64(q+1), q)
	}
	for q := 0; q+1 < n; q++ {
		b.CX(q, q+1)
	}
	if err := b.Permute([]int{2, 3}, []uint64{1, 2, 3, 0}); err != nil {
		t.Fatal(err)
	}
	b.MeasureAll()
	return a, b
}

// runKept is RunPlan that also returns the run's final state: pl runs on
// a runner that starts on a spare arena of its width, as RunPlan's does,
// and the runner's state is taken before it closes, so the arena goes
// back to spareArenas without it and no later run or NewState reuses it.
func runKept(t testing.TB, c *circuit.Circuit, pl *Plan, opts Options) (*Result, *State) {
	t.Helper()
	r, err := newRunner(c.NumQubits, opts.Shards)
	if err != nil {
		t.Fatal(err)
	}
	if a := spareArena(r.n); a != nil {
		r.arena = *a
	}
	res, err := r.Run(c, pl, opts, nil)
	st := r.st
	r.st = nil
	r.closeToSpare()
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// mustCompile compiles c or fails the test.
func mustCompile(t testing.TB, c *circuit.Circuit) *Plan {
	t.Helper()
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func amplitudes(st *State) []complex128 {
	out := make([]complex128, st.Dim())
	for k := range out {
		out[k] = st.Amplitude(uint64(k))
	}
	return out
}

// TestRunnerDirtyReuseParity runs plan A and then plan B on one Runner:
// B's amplitudes and counts are bitwise what a fresh Run of B gives,
// whatever A left in the planes, the scratch planes and the CDF buffer.
func TestRunnerDirtyReuseParity(t *testing.T) {
	const n = 13 // more than one cdfBlock
	ca, cb := runnerCircuits(t, n)
	pa, err := Compile(ca)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Compile(cb)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		opts := Options{Shots: 3000, Seed: 17, Shards: shards}
		want, wantSt := runKept(t, cb, pb, opts)
		r, err := newRunner(n, shards)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty every buffer: B first (scratch planes), then A.
		for _, dirty := range []struct {
			c  *circuit.Circuit
			pl *Plan
		}{{cb, pb}, {ca, pa}} {
			if _, err := r.Run(dirty.c, dirty.pl, Options{Shots: 100, Seed: 1}, nil); err != nil {
				t.Fatal(err)
			}
		}
		got, err := r.Run(cb, pb, opts, nil)
		gotSt := r.st
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("shards=%d: counts differ between a reused Runner and a fresh Run", shards)
		}
		if !reflect.DeepEqual(amplitudes(gotSt), amplitudes(wantSt)) {
			t.Errorf("shards=%d: amplitudes differ between a reused Runner and a fresh Run", shards)
		}
	}
}

// TestRunnerWarmAllocs bounds what a warm Runner allocates per run: a
// count that does not depend on the state size, and far fewer bytes than
// one amplitude plane. A plain Run pays the arena on top — two planes,
// the CDF and its block scratch, the Runner — and nothing else.
func TestRunnerWarmAllocs(t *testing.T) {
	measure := func(n int) (warm, fresh, warmBytes float64) {
		// The same gates whatever n is, so the plans have the same kernels
		// and only the state they sweep grows.
		c := circuit.New(n, n)
		c.Instrs = append(c.Instrs, deepCircuit(8, 2).Instrs...)
		c.MeasureAll()
		pl, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Shots: 64, Seed: 5, Shards: 1}
		r, err := newRunner(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		run := func() {
			if _, err := r.Run(c, pl, opts, nil); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		warm = testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&m1)
		warmBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
		fresh = testing.AllocsPerRun(runs, func() {
			if _, err := RunPlan(c, pl, opts); err != nil {
				t.Fatal(err)
			}
		})
		return warm, fresh, warmBytes
	}
	warm10, _, _ := measure(10)
	warm14, fresh14, bytes14 := measure(14)
	if warm14 > warm10+4 {
		t.Errorf("warm allocations grow with the state: %.0f at 10 qubits, %.0f at 14", warm10, warm14)
	}
	if plane := float64(8 << 14); bytes14 > plane/4 {
		t.Errorf("a warm 14-qubit run allocates %.0f bytes; one plane is %.0f", bytes14, plane)
	}
	if fresh14 > warm14+10 {
		t.Errorf("plain RunPlan allocates %.0f times, a warm Runner %.0f: more than the arena on top", fresh14, warm14)
	}
}

// TestSpareArenaReuse: the arena RunPlan's Runner closes with goes to the
// next RunPlan or NewState of its width. NewState on a spare state is
// exactly |0…0⟩ (every other amplitude +0), a state runKept took never
// comes back, and a run that starts on a dirty spare arena is bitwise a
// fresh one (TestRunnerDirtyReuseParity's first run draws one too).
func TestSpareArenaReuse(t *testing.T) {
	const n = 11
	ca, cb := runnerCircuits(t, n)
	pa, err := Compile(ca)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Compile(cb)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for attempt := 0; attempt < 10; attempt++ {
		r, err := newRunner(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(cb, pb, Options{Shots: 10, Seed: 1}, nil); err != nil {
			t.Fatal(err)
		}
		planes := r.st.re
		r.closeToSpare()
		st, err := NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		if &st.re[0] == &planes[0] {
			reused++
		}
		for k := range st.re {
			want := uint64(0)
			if k == 0 {
				want = math.Float64bits(1)
			}
			if math.Float64bits(st.re[k]) != want || math.Float64bits(st.im[k]) != 0 {
				t.Fatalf("NewState amp[%d] = (%v, %v) after a closed Runner, want |0…0⟩", k, st.re[k], st.im[k])
			}
		}
	}
	// sync.Pool may drop an item (the race detector drops some on
	// purpose), but not ten in a row.
	if reused == 0 {
		t.Error("NewState never took a closed Runner's state")
	}

	_, kept := runKept(t, cb, pb, Options{Shots: 10, Seed: 3})
	before := amplitudes(kept)
	for i := 0; i < 3; i++ {
		st, err := NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		if &st.re[0] == &kept.re[0] {
			t.Fatal("NewState handed out the state runKept took")
		}
		if err := pa.Execute(st, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := RunPlan(ca, pa, Options{Shots: 10, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(amplitudes(kept), before) {
		t.Fatal("a later run overwrote the state runKept took")
	}

	want, wantSt := runKept(t, cb, pb, Options{Shots: 500, Seed: 9})
	for _, shards := range []int{1, 4} {
		if _, err := RunPlan(ca, pa, Options{Shots: 10, Seed: 1, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		got, gotSt := runKept(t, cb, pb, Options{Shots: 500, Seed: 9, Shards: shards})
		if !reflect.DeepEqual(got.Counts, want.Counts) || !reflect.DeepEqual(amplitudes(gotSt), amplitudes(wantSt)) {
			t.Errorf("shards=%d: a run on a spare arena differs from the first run", shards)
		}
	}
}
