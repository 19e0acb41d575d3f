package anneal

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
)

func cycle4() *ising.Model { return ising.FromMaxCut(graph.Cycle(4)) }

func TestSampleCycle4FindsGroundStates(t *testing.T) {
	// The paper's §5 anneal path: num_reads = 1000 on the 4-cycle Ising
	// problem. Both runs should overwhelmingly return the optimal cuts
	// 1010 (mask 5) and 0101 (mask 10) at energy -4.
	res, err := SampleModel(cycle4(), Params{NumReads: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best.Energy != -4 {
		t.Fatalf("best energy = %v, want -4", best.Energy)
	}
	if best.Mask != 5 && best.Mask != 10 {
		t.Errorf("best mask = %d, want 5 or 10", best.Mask)
	}
	if p := res.GroundProbability(-4, 1e-9); p < 0.95 {
		t.Errorf("ground probability = %v, want > 0.95 on this trivial instance", p)
	}
	if res.NumReads != 1000 {
		t.Errorf("NumReads = %d", res.NumReads)
	}
}

func TestSampleDeterministicBySeed(t *testing.T) {
	m := ising.FromMaxCut(graph.ErdosRenyi(10, 0.5, 3))
	a, err := SampleModel(m, Params{NumReads: 50, Sweeps: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleModel(m, Params{NumReads: 50, Sweeps: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("same seed, different sample sets")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("same seed, sample %d differs", i)
		}
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

// TestSampleWorkersIsTheWidth guards the shard grant: SampleModel fans its
// reads out over at most Params.Workers goroutines, whatever GOMAXPROCS
// says — concurrent anneal jobs on a busy pool are each granted one and
// must not oversubscribe the cores — and samples the same for any width.
func TestSampleWorkersIsTheWidth(t *testing.T) {
	m := ising.FromMaxCut(graph.ErdosRenyi(16, 0.5, 5))
	// Force a wide default even on small runners so a fan-out past the
	// grant is visible everywhere.
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	var want *Result
	for _, workers := range []int{1, 3, 0} {
		var res *Result
		var err error
		high := goroutineHighWater(func() {
			res, err = SampleModel(m, Params{NumReads: 24, Sweeps: 400, Seed: 17, Workers: workers})
		})
		if err != nil {
			t.Fatal(err)
		}
		// Allow the monitor itself plus a little runtime slack.
		if workers > 0 && high > workers+3 {
			t.Errorf("workers %d: goroutine high-water mark base+%d exceeds base+%d", workers, high, workers+3)
		}
		if want == nil {
			want = res
		} else if !slices.Equal(res.Samples, want.Samples) {
			t.Errorf("workers %d sampled %v, workers 1 sampled %v", workers, res.Samples, want.Samples)
		}
	}
}

func TestSampleMatchesBruteForceGround(t *testing.T) {
	// On small random instances, SA with generous sweeps should find the
	// true ground energy.
	for seed := uint64(1); seed <= 5; seed++ {
		g := graph.ErdosRenyi(8, 0.5, seed)
		m := ising.FromMaxCut(g)
		gs := m.BruteForce()
		res, err := SampleModel(m, Params{NumReads: 50, Sweeps: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Best().Energy-gs.Energy) > 1e-9 {
			t.Errorf("seed %d: SA best %v, true ground %v", seed, res.Best().Energy, gs.Energy)
		}
	}
}

func TestSampleNeverBelowGround(t *testing.T) {
	// Property: no reported energy can be below the true ground energy.
	f := func(seed uint64) bool {
		g := graph.ErdosRenyi(7, 0.6, seed)
		m := ising.FromMaxCut(g)
		gs := m.BruteForce()
		res, err := SampleModel(m, Params{NumReads: 10, Sweeps: 50, Seed: seed})
		if err != nil {
			return false
		}
		for _, s := range res.Samples {
			if s.Energy < gs.Energy-1e-9 {
				return false
			}
			// And the reported energy must match the mask.
			if math.Abs(s.Energy-m.EnergyBits(s.Mask)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOccurrencesSumToReads(t *testing.T) {
	res, err := SampleModel(cycle4(), Params{NumReads: 123, Sweeps: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Samples {
		total += s.Occurrences
	}
	if total != 123 {
		t.Errorf("occurrences sum %d, want 123", total)
	}
}

func TestParamValidation(t *testing.T) {
	m := cycle4()
	if _, err := SampleModel(m, Params{NumReads: 0}); err == nil {
		t.Error("zero reads accepted")
	}
	if _, err := SampleModel(m, Params{NumReads: 1, Sweeps: -5}); err == nil {
		t.Error("negative sweeps accepted")
	}
	// Sweeps sizes the schedule table built before any read runs: a
	// huge value must be refused, not allocated.
	for _, sweeps := range []int{ctxdesc.MaxAnnealSweeps + 1, 1e15, math.MaxInt} {
		if _, err := SampleModel(m, Params{NumReads: 1, Sweeps: sweeps}); err == nil {
			t.Errorf("sweeps %d accepted", sweeps)
		}
	}
	if _, err := SampleModel(m, Params{NumReads: 1, BetaMin: 2, BetaMax: 1}); err == nil {
		t.Error("inverted beta range accepted")
	}
	if _, err := SampleModel(m, Params{NumReads: 1, Schedule: "bogus"}); err == nil {
		t.Error("unknown schedule accepted")
	}
	if _, err := SampleModel(ising.NewModel(0), Params{NumReads: 1}); err == nil {
		t.Error("empty model accepted")
	}
}

func TestSchedules(t *testing.T) {
	p := Params{BetaMin: 0.1, BetaMax: 10, Schedule: "linear"}
	if b := betaAt(p, 0, 100); math.Abs(b-0.1) > 1e-12 {
		t.Errorf("linear start = %v", b)
	}
	if b := betaAt(p, 99, 100); math.Abs(b-10) > 1e-12 {
		t.Errorf("linear end = %v", b)
	}
	p.Schedule = "geometric"
	if b := betaAt(p, 0, 100); math.Abs(b-0.1) > 1e-12 {
		t.Errorf("geometric start = %v", b)
	}
	if b := betaAt(p, 99, 100); math.Abs(b-10) > 1e-9 {
		t.Errorf("geometric end = %v", b)
	}
	mid := betaAt(p, 49, 100)
	if mid < 0.5 || mid > 2 {
		t.Errorf("geometric midpoint = %v, want ~1 (geometric mean)", mid)
	}
}

func TestMeanEnergy(t *testing.T) {
	r := &Result{Samples: []Sample{
		{Mask: 0, Energy: -4, Occurrences: 3},
		{Mask: 1, Energy: 0, Occurrences: 1},
	}}
	if got := r.MeanEnergy(); math.Abs(got+3) > 1e-12 {
		t.Errorf("MeanEnergy = %v, want -3", got)
	}
}

func TestRandomSampleBaseline(t *testing.T) {
	m := cycle4()
	res, err := RandomSample(m, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform over 16 configs: ground probability ≈ 2/16.
	p := res.GroundProbability(-4, 1e-9)
	if p < 0.06 || p > 0.20 {
		t.Errorf("random ground probability = %v, want ~0.125", p)
	}
	if _, err := RandomSample(m, 0, 1); err == nil {
		t.Error("zero reads accepted")
	}
}

func TestGreedyDescentReachesLocalMinimum(t *testing.T) {
	m := ising.FromMaxCut(graph.ErdosRenyi(10, 0.5, 8))
	res, err := GreedyDescent(m, 30, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every returned configuration must be 1-flip stable.
	for _, smp := range res.Samples {
		s := ising.SpinsFromBits(smp.Mask, m.N)
		base := m.Energy(s)
		for i := 0; i < m.N; i++ {
			s[i] = -s[i]
			if m.Energy(s) < base-1e-9 {
				t.Fatalf("greedy returned non-local-minimum: flip %d improves", i)
			}
			s[i] = -s[i]
		}
	}
}

func TestTabuBeatsRandomOnFrustratedInstance(t *testing.T) {
	g := graph.ErdosRenyi(12, 0.5, 77)
	m := ising.FromMaxCut(g)
	gs := m.BruteForce()
	tabu, err := TabuSearch(m, 20, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomSample(m, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tabu.Best().Energy > rnd.Best().Energy {
		t.Errorf("tabu best %v worse than random best %v", tabu.Best().Energy, rnd.Best().Energy)
	}
	if math.Abs(tabu.Best().Energy-gs.Energy) > 1e-9 {
		t.Errorf("tabu missed ground state: %v vs %v", tabu.Best().Energy, gs.Energy)
	}
}

func TestBaselineValidation(t *testing.T) {
	m := cycle4()
	if _, err := GreedyDescent(m, 0, 1); err == nil {
		t.Error("greedy zero reads accepted")
	}
	if _, err := TabuSearch(m, 0, 10, 1); err == nil {
		t.Error("tabu zero reads accepted")
	}
}

func TestSampleWithFieldsModel(t *testing.T) {
	// Biased single spin: h = -1 wants s = +1 (energy -1).
	m := ising.NewModel(2)
	m.H[0] = -1
	m.H[1] = 1
	res, err := SampleModel(m, Params{NumReads: 100, Sweeps: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Ground state: s0=+1 (bit set), s1=-1 (bit clear) -> mask 1, energy -2.
	if res.Best().Mask != 1 || res.Best().Energy != -2 {
		t.Errorf("best = %+v, want mask 1 energy -2", res.Best())
	}
	if p := res.GroundProbability(-2, 1e-9); p < 0.99 {
		t.Errorf("trivial field problem ground probability %v", p)
	}
}

// BenchmarkSampleModel is the serving benchmark's anneal op: a 12-spin
// Max-Cut model on 18 random unit edges, 16 reads at the default schedule
// (1000 geometric sweeps). The reads fan out over GOMAXPROCS goroutines;
// -cpu 1 measures what one op costs on a one-shard grant.
func BenchmarkSampleModel(b *testing.B) {
	const n, edges = 12, 18
	r := rand.New(rand.NewSource(1))
	g := graph.New(n)
	for _, k := range r.Perm(n * (n - 1) / 2)[:edges] {
		u, v := pairAt(n, k)
		if err := g.AddEdge(u, v, 1); err != nil {
			b.Fatal(err)
		}
	}
	m := ising.FromMaxCut(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SampleModel(m, Params{NumReads: 16, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// pairAt returns the k-th pair (u < v) of n vertices in row order.
func pairAt(n, k int) (int, int) {
	for u := 0; ; u++ {
		row := n - 1 - u
		if k < row {
			return u, u + 1 + k
		}
		k -= row
	}
}
