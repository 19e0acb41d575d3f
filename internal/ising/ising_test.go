package ising

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestCycle4IsingGroundStates(t *testing.T) {
	// Paper §5: unit couplings on the 4-cycle. Ground states are the two
	// alternating configurations 0101 (=5) and 1010 (=10), energy -4.
	m := FromMaxCut(graph.Cycle(4))
	gs := m.BruteForce()
	if gs.Energy != -4 {
		t.Errorf("ground energy = %v, want -4", gs.Energy)
	}
	if len(gs.Masks) != 2 || gs.Masks[0] != 5 || gs.Masks[1] != 10 {
		t.Errorf("ground masks = %v, want [5 10]", gs.Masks)
	}
}

func TestCutFromEnergy(t *testing.T) {
	g := graph.Cycle(4)
	m := FromMaxCut(g)
	// Optimal: energy -4 -> cut 4. Uniform state (all same side): energy
	// +4 -> cut 0.
	if got := CutFromEnergy(g, m.EnergyBits(5)); got != 4 {
		t.Errorf("cut(0101) = %v, want 4", got)
	}
	if got := CutFromEnergy(g, m.EnergyBits(0)); got != 0 {
		t.Errorf("cut(0000) = %v, want 0", got)
	}
	if got := CutFromEnergy(g, m.EnergyBits(1)); got != 2 {
		t.Errorf("cut(0001) = %v, want 2", got)
	}
}

func TestCutEnergyCorrespondenceAllMasks(t *testing.T) {
	g := graph.ErdosRenyi(8, 0.6, 42)
	m := FromMaxCut(g)
	for mask := uint64(0); mask < 256; mask++ {
		cut := g.CutValueBits(mask)
		fromE := CutFromEnergy(g, m.EnergyBits(mask))
		if math.Abs(cut-fromE) > 1e-9 {
			t.Fatalf("mask %b: cut %v != energy-derived %v", mask, cut, fromE)
		}
	}
}

func TestEnergyManual(t *testing.T) {
	m := New(2, []Term{{I: 0, J: 1, V: 2}})
	m.H[0] = 0.5
	m.H[1] = -1
	// s = (+1, +1): 0.5 - 1 + 2 = 1.5
	if e := m.Energy([]int8{1, 1}); e != 1.5 {
		t.Errorf("E(+,+) = %v, want 1.5", e)
	}
	// s = (+1, -1): 0.5 + 1 - 2 = -0.5
	if e := m.Energy([]int8{1, -1}); e != -0.5 {
		t.Errorf("E(+,-) = %v, want -0.5", e)
	}
}

func TestEnergyPanicsOnBadSpin(t *testing.T) {
	m := New(1, nil)
	defer func() {
		if recover() == nil {
			t.Error("non-±1 spin accepted")
		}
	}()
	m.Energy([]int8{0})
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []Term{{I: 0, J: 0, V: 1}, {I: 0, J: 3, V: 1}, {I: -1, J: 1, V: 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid term %+v did not panic", bad)
				}
			}()
			New(3, []Term{bad})
		}()
	}
	m := New(3, []Term{{I: 2, J: 0, V: 1.5}})
	if nbr, js := m.Row(0); !slices.Equal(nbr, []int32{2}) || !slices.Equal(js, []float64{1.5}) {
		t.Errorf("row 0 = %v %v, want [2] [1.5]", nbr, js)
	}
	if nbr, js := m.Row(2); !slices.Equal(nbr, []int32{0}) || !slices.Equal(js, []float64{1.5}) {
		t.Errorf("row 2 = %v %v, want [0] [1.5]", nbr, js)
	}
	if n := New(3, []Term{{I: 0, J: 2, V: 0}}).NumCouplings(); n != 0 {
		t.Errorf("zero coupling kept: %d couplings", n)
	}
}

func TestSpinsBitsRoundTrip(t *testing.T) {
	f := func(mask uint16) bool {
		s := SpinsFromBits(uint64(mask), 16)
		return BitsFromSpins(s) == uint64(mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomTerms draws about n²/2 coupling terms on n spins, in either index
// order and with repeated pairs, so New has duplicates to sum. Integer
// values make every float sum exact whatever its order.
func randomTerms(r *rng.Rand, n int, integer bool) []Term {
	var terms []Term
	for k := 0; k < n*n/2; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		v := 2*r.Float64() - 1
		if integer {
			v = float64(r.Intn(7) - 3)
		}
		terms = append(terms, Term{I: i, J: j, V: v})
	}
	return terms
}

// TestEnergyMatchesDenseReference holds Energy to E(s) = offset + Σ h_i s_i
// + ½ Σ_{i≠j} J_ij s_i s_j over a dense symmetric matrix summed row-major:
// bit-exact for integer couplings, within 1e-12 for real ones.
func TestEnergyMatchesDenseReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := 1 + r.Intn(9)
		integer := seed%2 == 0
		terms := randomTerms(r, n, integer)
		m := New(n, terms)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
			if integer {
				m.H[i] = float64(r.Intn(5) - 2)
			} else {
				m.H[i] = 2*r.Float64() - 1
			}
		}
		m.Offset = float64(r.Intn(5))
		for _, c := range terms {
			dense[c.I][c.J] += c.V
			dense[c.J][c.I] += c.V
		}
		for mask := uint64(0); mask < 1<<n; mask++ {
			s := SpinsFromBits(mask, n)
			pair := 0.0
			for i := range dense {
				for j, v := range dense[i] {
					pair += v * float64(s[i]) * float64(s[j])
				}
			}
			want := m.Offset
			for i, h := range m.H {
				want += h * float64(s[i])
			}
			want += pair / 2
			got := m.Energy(s)
			if integer && got != want || math.Abs(got-want) > 1e-12 {
				t.Fatalf("seed %d mask %b: Energy %v, dense reference %v", seed, mask, got, want)
			}
		}
	}
}

// TestFromMaxCutSumsParallelEdges: a multigraph's parallel edges become one
// coupling carrying their summed weight.
func TestFromMaxCutSumsParallelEdges(t *testing.T) {
	g := graph.New(3)
	for _, e := range []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 2}, {U: 1, V: 0, Weight: 0.5}, {U: 0, V: 1, Weight: 0.25}} {
		if err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	m := FromMaxCut(g)
	got := slices.Collect(m.Couplings())
	want := []Term{{I: 0, J: 1, V: 1.75}, {I: 1, J: 2, V: 2}}
	if !slices.Equal(got, want) {
		t.Errorf("couplings %v, want %v", got, want)
	}
	for mask := uint64(0); mask < 8; mask++ {
		if cut, fromE := g.CutValueBits(mask), CutFromEnergy(g, m.EnergyBits(mask)); cut != fromE {
			t.Errorf("mask %03b: cut %v, energy-derived %v", mask, cut, fromE)
		}
	}
}

// TestCancellingTermsLeaveNoEntry: terms that sum to zero leave no entry in
// either row, and NumCouplings does not count them.
func TestCancellingTermsLeaveNoEntry(t *testing.T) {
	m := New(3, []Term{{I: 0, J: 1, V: 1.5}, {I: 1, J: 2, V: 2}, {I: 1, J: 0, V: -1}, {I: 0, J: 1, V: -0.5}})
	if nbr, _ := m.Row(0); len(nbr) != 0 {
		t.Errorf("row 0 = %v, want empty", nbr)
	}
	if nbr, js := m.Row(1); !slices.Equal(nbr, []int32{2}) || !slices.Equal(js, []float64{2}) {
		t.Errorf("row 1 = %v %v, want [2] [2]", nbr, js)
	}
	if n := m.NumCouplings(); n != 1 {
		t.Errorf("NumCouplings = %d, want 1", n)
	}
}

// TestLocalFieldMatchesEnergyDelta: the local field read off spin i's row,
// h_i + Σ_k J_ik s_k, predicts the energy change of flipping spin i, which
// holds only if every row is the symmetric image of the pairs Energy sums.
func TestLocalFieldMatchesEnergyDelta(t *testing.T) {
	r := rng.New(13)
	m := New(6, randomTerms(r, 6, false))
	for i := range m.H {
		m.H[i] = 2*r.Float64() - 1
	}
	for mask := uint64(0); mask < 64; mask++ {
		s := SpinsFromBits(mask, 6)
		e0 := m.Energy(s)
		for i := 0; i < 6; i++ {
			field := m.H[i]
			nbr, js := m.Row(i)
			for k, p := range nbr {
				field += js[k] * float64(s[p])
			}
			s[i] = -s[i]
			e1 := m.Energy(s)
			s[i] = -s[i]
			// ΔE = e1 − e0 = −2·s_i·field, with s_i the value before the flip.
			want := -2 * float64(s[i]) * field
			if math.Abs((e1-e0)-want) > 1e-9 {
				t.Fatalf("mask %b spin %d: ΔE = %v, want %v", mask, i, e1-e0, want)
			}
		}
	}
}

// TestAdjacencyList: the rows are the coupling graph's adjacency lists,
// partners ascending.
func TestAdjacencyList(t *testing.T) {
	m := FromMaxCut(graph.Cycle(4))
	want := [][]int32{{1, 3}, {0, 2}, {1, 3}, {0, 2}}
	for i := range want {
		if nbr, _ := m.Row(i); !slices.Equal(nbr, want[i]) {
			t.Fatalf("row %d = %v, want %v", i, nbr, want[i])
		}
	}
}

func TestMaxAbsCoupling(t *testing.T) {
	m := New(3, []Term{{I: 0, J: 1, V: 1.5}, {I: 1, J: 2, V: -2.5}})
	m.H[0] = -0.25
	if got := m.MaxAbsCoupling(); got != 2.5 {
		t.Errorf("MaxAbsCoupling = %v, want 2.5", got)
	}
}

func TestBruteForceDegenerateOffset(t *testing.T) {
	m := New(2, nil)
	m.Offset = 3
	gs := m.BruteForce()
	if gs.Energy != 3 {
		t.Errorf("zero model ground energy = %v, want offset 3", gs.Energy)
	}
	if len(gs.Masks) != 4 {
		t.Errorf("zero model has %d ground states, want all 4", len(gs.Masks))
	}
}

func TestCouplingsDeterministicOrder(t *testing.T) {
	m := New(4, []Term{{I: 2, J: 3, V: 1}, {I: 1, J: 0, V: 1}, {I: 0, J: 3, V: 1}})
	got := slices.Collect(m.Couplings())
	want := []Term{{I: 0, J: 1, V: 1}, {I: 0, J: 3, V: 1}, {I: 2, J: 3, V: 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("Couplings() = %v, want %v", got, want)
	}
}
