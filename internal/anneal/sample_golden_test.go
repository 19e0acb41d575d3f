package anneal

import (
	"cmp"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ising"
)

// updateGolden rewrites testdata/sample_golden.txt from the current
// samplers. The committed file was written by the commit BEFORE the
// samplers read couplings from a flat table instead of a coupling map and
// the schedule from a precomputed slice instead of a Pow per sweep, so the
// test pins that change (and any later one, such as the map's removal from
// ising.Model) to the samples the map-based code drew. Regenerate only for
// a deliberate change of the seeded-stream contract.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/anneal/testdata/sample_golden.txt from the current samplers")

// goldenModel is a random Ising model on n spins. "unit" is the Max-Cut
// model of an Erdős–Rényi graph (the benchmark's shape); "real" draws
// real-valued couplings on about half the pairs and a field on every spin.
func goldenModel(kind string, n int, seed int64) *ising.Model {
	if kind == "unit" {
		return ising.FromMaxCut(graph.ErdosRenyi(n, 0.5, uint64(seed)))
	}
	r := rand.New(rand.NewSource(seed))
	h := make([]float64, n)
	var terms []ising.Term
	for i := 0; i < n; i++ {
		h[i] = 2*r.Float64() - 1
		for j := i + 1; j < n; j++ {
			if r.Intn(2) == 0 {
				terms = append(terms, ising.Term{I: i, J: j, V: 3*r.Float64() - 1.5})
			}
		}
	}
	m := ising.New(n, terms)
	copy(m.H, h)
	return m
}

// samplesDigest is a short hash of a result's samples in mask order: mask,
// occurrences and the energy to nine decimals. The committed file was
// written when ising.Model.Energy summed a coupling map in its random
// iteration order, whose last bits differed from run to run; energies are
// now the same bits on every run, and the rounding stays only because the
// committed digests were taken with it.
func samplesDigest(res *Result) string {
	samples := slices.Clone(res.Samples)
	slices.SortFunc(samples, func(a, b Sample) int { return cmp.Compare(a.Mask, b.Mask) })
	h := sha256.New()
	for _, s := range samples {
		fmt.Fprintf(h, "%x:%d:%.9f,", s.Mask, s.Occurrences, s.Energy)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestSampleGolden holds SampleModel (both schedules, one, two and the
// default number of sweeps), GreedyDescent and TabuSearch on random unit
// and real-valued models to the digests the map-based samplers produced.
func TestSampleGolden(t *testing.T) {
	var rows []string
	for _, n := range []int{2, 5, 12, 24} {
		for _, kind := range []string{"unit", "real"} {
			seed := int64(31*n + len(kind))
			m := goldenModel(kind, n, seed)
			if m.NumCouplings() == 0 && n > 2 {
				t.Fatalf("n=%d %s: model has no couplings", n, kind)
			}
			for _, schedule := range []string{"geometric", "linear"} {
				for _, sweeps := range []int{1, 2, 0} {
					row := fmt.Sprintf("n=%d model=%s sa schedule=%s sweeps=%d", n, kind, schedule, sweeps)
					res, err := SampleModel(m, Params{NumReads: 16, Sweeps: sweeps, Schedule: schedule, Seed: uint64(seed)})
					if err != nil {
						t.Fatalf("%s: %v", row, err)
					}
					rows = append(rows, row+" "+samplesDigest(res))
				}
			}
			greedy, err := GreedyDescent(m, 16, uint64(seed))
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("n=%d model=%s greedy %s", n, kind, samplesDigest(greedy)))
			tabu, err := TabuSearch(m, 8, 0, uint64(seed))
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("n=%d model=%s tabu %s", n, kind, samplesDigest(tabu)))
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	path := filepath.Join("testdata", "sample_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantRows) != len(rows) {
		t.Fatalf("%d rows, the committed file holds %d", len(rows), len(wantRows))
	}
	for i, row := range rows {
		if row != wantRows[i] {
			t.Errorf("samples moved\n got %s\nwant %s", row, wantRows[i])
		}
	}
}
