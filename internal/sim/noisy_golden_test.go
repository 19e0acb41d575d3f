package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// updateGolden rewrites testdata/noisy_golden.txt from RunNoisy. The
// committed file was written by the commit BEFORE trajectories moved from
// the per-gate State methods onto the compiled kernels, so the test pins
// that refactor (and any later one) to the counts the per-gate path
// sampled. Regenerate only for a deliberate change of the seeded-stream
// contract. The test uses nothing of the package but RunNoisy's signature,
// so the identical file compiles against either engine.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/sim/testdata/noisy_golden.txt from the current RunNoisy")

// goldenQAOA is the shape of the benchmark's noisy op: a Hadamard layer,
// then two rounds of CX·RZ·CX over a ring and an RX mixer.
func goldenQAOA(n int) *circuit.Circuit {
	c := circuit.New(n, n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for l := 0; l < 2; l++ {
		for q := 0; q < n; q++ {
			a, b := q, (q+1)%n
			if a == b {
				continue
			}
			c.CX(a, b).RZ(0.37*float64(l+1)+0.05*float64(q), b).CX(a, b)
		}
		for q := 0; q < n; q++ {
			c.RX(0.61*float64(l+1), q)
		}
	}
	c.MeasureAll()
	return c
}

// goldenMixed wraps a randomMixedCircuit so that every width carries each
// native kernel class: an opening Init on qubit 0 (still |0⟩ there), then
// the random body, then a Permute, a three-qubit exchange, a Diagonal and
// a closing rotation layer that spreads whatever they moved.
func goldenMixed(seed int64, n int) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	body := randomMixedCircuit(r, n, 16+2*n)
	c := circuit.New(n, n)
	if err := c.Init([]int{0}, []complex128{0.6, 0.8i}); err != nil {
		panic(err)
	}
	c.Instrs = append(c.Instrs, body.Instrs...)
	if err := c.Permute([]int{n - 1, 0}, []uint64{2, 0, 3, 1}); err != nil {
		panic(err)
	}
	if n >= 3 {
		c.CCX(0, n-1, 1).CSwap(1, 0, n-1)
	}
	if err := c.Diagonal([]int{n - 1, 0}, []complex128{1, 1i, -1, phaseExp(0.3)}); err != nil {
		panic(err)
	}
	for q := 0; q < n; q++ {
		c.RY(0.2+0.1*float64(q), q)
	}
	c.MeasureAll()
	return c
}

// countsDigest is a short hash of the sorted outcome table.
func countsDigest(counts Counts) string {
	h := sha256.New()
	for _, k := range counts.Keys() {
		fmt.Fprintf(h, "%d:%d,", k, counts[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestRunNoisyGolden holds RunNoisy's counts, over widths on both sides of
// parallelThreshold, every kernel class, three noise models and four
// grants, to the digests the per-gate trajectory engine produced. A row
// must read the same at every grant: the jobs cache dedups on
// bundle+shots+seed alone.
func TestRunNoisyGolden(t *testing.T) {
	models := []struct {
		name string
		nm   NoiseModel
	}{
		{"bench", NoiseModel{Prob1Q: 0.001, Prob2Q: 0.01, ReadoutFlip: 0.02}},
		{"gate", NoiseModel{Prob1Q: 0.05, Prob2Q: 0.1}},
		{"2q+flip", NoiseModel{Prob2Q: 0.3, ReadoutFlip: 0.5}},
	}
	var rows []string
	for _, n := range []int{2, 3, 5, 8, 10, 13, 14} {
		shots := 64
		switch {
		case n >= 13:
			shots = 16
		case n >= 10:
			shots = 32
		}
		circuits := []struct {
			name string
			c    *circuit.Circuit
		}{
			{"qaoa", goldenQAOA(n)},
			{"mixedA", goldenMixed(int64(100+n), n)},
			{"mixedB", goldenMixed(int64(900+n), n)},
		}
		for _, cc := range circuits {
			for _, m := range models {
				row := fmt.Sprintf("n=%d circ=%s noise=%s shots=%d", n, cc.name, m.name, shots)
				digest := ""
				for _, grant := range []int{0, 1, 2, 4} {
					res, err := RunNoisy(cc.c, m.nm, Options{Shots: shots, Seed: uint64(7 + n), Shards: grant})
					if err != nil {
						t.Fatalf("%s grant=%d: %v", row, grant, err)
					}
					if got := res.Counts.TotalShots(); got != shots {
						t.Fatalf("%s grant=%d: %d shots counted", row, grant, got)
					}
					d := countsDigest(res.Counts)
					if digest == "" {
						digest = d
					} else if d != digest {
						t.Errorf("%s: grant %d sampled %s, grant 0 sampled %s", row, grant, d, digest)
					}
				}
				rows = append(rows, row+" "+digest)
			}
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	path := filepath.Join("testdata", "noisy_golden.txt")
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
			t.Errorf("counts moved\n got %s\nwant %s", row, wantRows[i])
		}
	}
}
