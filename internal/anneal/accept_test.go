package anneal

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/rng"
)

// integerModel draws seed's integer-valued problem on 4–10 spins, as the
// paper table's thesis rows do, by family: Max-Cut on a random graph
// ("unit"), number partitioning with weights 1–20 ("partition"), or
// fields and couplings in [−2, 2] on about half the pairs ("pm2").
func integerModel(t *testing.T, family string, seed uint64) *ising.Model {
	r := rng.New(seed)
	n := 4 + r.Intn(7)
	switch family {
	case "unit":
		return ising.FromMaxCut(graph.ErdosRenyi(n, 0.5, seed))
	case "partition":
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + r.Intn(20))
		}
		m, err := ising.NumberPartitioning(w)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	h := make([]float64, n)
	var terms []ising.Term
	for i := range h {
		h[i] = float64(r.Intn(5) - 2)
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.5 {
				terms = append(terms, ising.Term{I: i, J: j, V: float64(r.Intn(5) - 2)})
			}
		}
	}
	m := ising.New(n, terms)
	copy(m.H, h)
	return m
}

// TestAcceptTableMatchesExp runs every read of 60 seeds' integer models
// twice, from the acceptance table and on the math.Exp path, under both
// schedules: the masks and the streams' final states must be equal, so
// the table changes neither a decision nor a draw. The unit and [−2, 2]
// families always fit the table; number partitioning's couplings
// 2·w_i·w_j put L past 64 on every seed drawn here, so it runs the
// math.Exp path only (the count is logged), as TestAcceptTableFallback
// requires.
func TestAcceptTableMatchesExp(t *testing.T) {
	const seeds = 60
	for _, family := range []string{"unit", "partition", "pm2"} {
		tabulated := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			m := integerModel(t, family, seed)
			for _, sched := range []string{"geometric", "linear"} {
				p, err := Params{NumReads: 16, Sweeps: 300, Schedule: sched, Seed: seed}.withDefaults(m)
				if err != nil {
					t.Fatal(err)
				}
				betas := schedule(p)
				table := newAcceptTable(m, betas)
				if table.p == nil {
					if family != "partition" {
						t.Fatalf("%s seed %d: no acceptance table", family, seed)
					}
					continue
				}
				tabulated++
				master := rng.New(seed)
				for read := 0; read < p.NumReads; read++ {
					a := master.Child()
					b := *a
					got, want := annealOnce(m, betas, table, a), annealOnce(m, betas, acceptTable{}, &b)
					if got != want || *a != b {
						t.Fatalf("%s seed %d %s read %d: table mask %x, math.Exp mask %x (streams equal: %v)",
							family, seed, sched, read, got, want, *a == b)
					}
				}
			}
		}
		t.Logf("%s: %d of %d runs took the table", family, tabulated, 2*seeds)
	}
}

// TestAcceptTableFallback: a model with a fractional field or coupling,
// the golden "real" models among them, an integer model with L > 64, and
// a table that would pass maxAcceptEntries all take the math.Exp path;
// L = 64 and a table of exactly maxAcceptEntries take the table.
func TestAcceptTableFallback(t *testing.T) {
	betas := func(n int) []float64 {
		return schedule(Params{Sweeps: n, BetaMin: 0.1, BetaMax: 2, Schedule: "geometric"})
	}
	for _, n := range []int{2, 5, 12, 24} {
		m := goldenModel("real", n, int64(31*n+4))
		if newAcceptTable(m, betas(1000)).p != nil {
			t.Errorf("golden real model n=%d took the table", n)
		}
		if newAcceptTable(goldenModel("unit", n, int64(31*n+4)), betas(1000)).p == nil {
			t.Errorf("golden unit model n=%d took the math.Exp path", n)
		}
	}
	star := func(h, j float64) *ising.Model {
		m := ising.New(3, []ising.Term{{I: 0, J: 1, V: j}, {I: 0, J: 2, V: j}})
		m.H[0] = h
		return m
	}
	for _, c := range []struct {
		name   string
		m      *ising.Model
		sweeps int
		table  bool
	}{
		{"L=64", star(60, 2), 100, true},
		{"L=65", star(61, 2), 100, false},
		{"fractional field", star(0.5, 1), 1000, false},
		{"fractional coupling", star(1, 1.5), 1000, false},
		{"L=3 at the entry bound", star(1, 1), maxAcceptEntries / 4, true},
		{"L=3 past the entry bound", star(1, 1), maxAcceptEntries/4 + 1, false},
		{"L=2 at MaxAnnealSweeps", cycle4(), ctxdesc.MaxAnnealSweeps, false},
	} {
		table := newAcceptTable(c.m, betas(c.sweeps))
		if got := table.p != nil; got != c.table {
			t.Errorf("%s: table %v, want %v", c.name, got, c.table)
		}
		if table.p != nil && len(table.p) > maxAcceptEntries {
			t.Errorf("%s: table of %d entries", c.name, len(table.p))
		}
	}
	// Number partitioning's couplings 2·w_i·w_j pass L = 64 quickly.
	if m, err := ising.NumberPartitioning([]float64{3, 5, 7, 9}); err != nil || newAcceptTable(m, betas(10)).p != nil {
		t.Errorf("partitioning with L > 64 took the table (err %v)", err)
	}
}

// TestSampleModelHeapBound: a one-read run allocates the schedule (8 B
// per sweep), at most maxAcceptEntries table entries and a few small
// slices, both at MaxAnnealSweeps, where the table would be too large
// and the math.Exp path runs, and at the largest sweep count whose table
// still fits.
func TestSampleModelHeapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("a million sweeps")
	}
	for _, sweeps := range []int{maxAcceptEntries / 3, ctxdesc.MaxAnnealSweeps} {
		t.Run(fmt.Sprint(sweeps), func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := SampleModel(cycle4(), Params{NumReads: 1, Sweeps: sweeps, Seed: 1, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			grew := m1.TotalAlloc - m0.TotalAlloc
			if bound := uint64(8*sweeps + 8*maxAcceptEntries + 64<<10); grew > bound {
				t.Errorf("%d sweeps allocated %d bytes, bound %d", sweeps, grew, bound)
			}
		})
	}
}
