package embed

import (
	"math"
	"testing"

	"repro/internal/anneal"
	"repro/internal/graph"
	"repro/internal/ising"
)

func TestChimeraStructure(t *testing.T) {
	h, err := Chimera(2)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 32 {
		t.Fatalf("C(2) has %d qubits, want 32", h.N)
	}
	// Edges: 4 cells × 16 intra + vertical 2 cols × 4 + horizontal 2 rows × 4 = 64 + 8 + 8.
	if h.EdgeCount() != 80 {
		t.Errorf("C(2) has %d couplers, want 80", h.EdgeCount())
	}
	// Intra-cell: left 0 of cell (0,0) couples to right 0..3 of same cell.
	for j := 0; j < 4; j++ {
		if !h.Adjacent(0, 4+j) {
			t.Errorf("left 0 not coupled to right %d in cell (0,0)", j)
		}
	}
	// No left-left coupling within a cell.
	if h.Adjacent(0, 1) {
		t.Error("left qubits coupled within a cell")
	}
	// Vertical: left i of (0,0) couples to left i of (1,0). Cell (1,0) is
	// cell index row*m+col = 2, base 16.
	if !h.Adjacent(0, 16) {
		t.Error("vertical coupler missing")
	}
	// Horizontal: right i of (0,0) (id 4) couples to right i of (0,1)
	// (base 8, right side: 12).
	if !h.Adjacent(4, 12) {
		t.Error("horizontal coupler missing")
	}
	if _, err := Chimera(0); err == nil {
		t.Error("C(0) accepted")
	}
}

func TestChimeraDegreeBounds(t *testing.T) {
	h, _ := Chimera(3)
	for p := 0; p < h.N; p++ {
		d := h.Degree(p)
		if d < 4 || d > 6 {
			t.Errorf("qubit %d degree %d outside [4,6]", p, d)
		}
	}
}

func TestCompleteHardware(t *testing.T) {
	h := Complete(5)
	if h.EdgeCount() != 10 {
		t.Errorf("K5 edges = %d", h.EdgeCount())
	}
	if !h.Adjacent(0, 4) || h.Adjacent(1, 1) {
		t.Error("adjacency wrong")
	}
}

func TestFindEmbeddingCycle4OnChimera(t *testing.T) {
	m := ising.FromMaxCut(graph.Cycle(4))
	hw, _ := Chimera(1)
	e, err := Find(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(m); err != nil {
		t.Errorf("embedding invalid: %v", err)
	}
	if e.PhysicalQubits() < 4 {
		t.Errorf("too few physical qubits: %d", e.PhysicalQubits())
	}
}

func TestFindEmbeddingK4OnChimera(t *testing.T) {
	// K4 is not a subgraph of K_{4,4}; chains are required.
	m := ising.FromMaxCut(graph.Complete(4))
	hw, _ := Chimera(1)
	e, err := Find(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxChainLength() < 2 {
		t.Errorf("K4 embedded without chains (max chain %d); K4 ⊄ K44", e.MaxChainLength())
	}
}

func TestFindEmbeddingIdentityOnComplete(t *testing.T) {
	m := ising.FromMaxCut(graph.Complete(5))
	e, err := Find(m, Complete(5))
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxChainLength() != 1 || e.PhysicalQubits() != 5 {
		t.Errorf("all-to-all embedding not identity-like: chains %v", e.Chains)
	}
}

func TestFindFailsOnTooSmallHardware(t *testing.T) {
	m := ising.FromMaxCut(graph.Complete(6))
	if _, err := Find(m, Complete(3)); err == nil {
		t.Error("oversized problem embedded")
	}
}

func TestEmbedModelEnergyCorrespondence(t *testing.T) {
	// For an unbroken-chain physical configuration, the physical energy
	// equals the logical energy plus the (constant) chain binding energy.
	g := graph.Cycle(4)
	m := ising.FromMaxCut(g)
	hw, _ := Chimera(1)
	e, err := Find(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := e.EmbedModel(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Count intra-chain couplers to compute the binding constant.
	chainLinks := 0
	for _, chain := range e.Chains {
		for i, p := range chain {
			for _, q := range chain[i+1:] {
				if hw.Adjacent(p, q) {
					chainLinks++
				}
			}
		}
	}
	binding := -3 * float64(chainLinks)
	for logical := uint64(0); logical < 16; logical++ {
		var physMask uint64
		for v, chain := range e.Chains {
			if logical>>uint(v)&1 == 1 {
				for _, p := range chain {
					physMask |= 1 << uint(p)
				}
			}
		}
		got := phys.EnergyBits(physMask)
		want := m.EnergyBits(logical) + binding
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("logical %04b: physical energy %v, want %v", logical, got, want)
		}
	}
}

func TestUnembedMajorityVote(t *testing.T) {
	hw, _ := Chimera(1)
	e := &Embedding{HW: hw, Chains: [][]int{{0, 4, 1}, {5}}}
	// Chain 0: qubits 0 and 4 up, 1 down -> majority +1. Chain 1: down.
	logical, broken := e.Unembed(1<<0 | 1<<4)
	if logical != 1 {
		t.Errorf("logical = %b, want 1", logical)
	}
	if broken != 1 {
		t.Errorf("broken = %d, want 1", broken)
	}
	// Unanimous chains: no breakage.
	logical, broken = e.Unembed(1<<0 | 1<<4 | 1<<1 | 1<<5)
	if logical != 3 || broken != 0 {
		t.Errorf("unanimous unembed = %b, broken %d", logical, broken)
	}
}

func TestEndToEndEmbeddedAnneal(t *testing.T) {
	// The full anneal-with-embedding path: embed the §5 problem onto
	// Chimera, sample the physical model, unembed, and confirm the
	// logical ground states dominate.
	g := graph.Cycle(4)
	m := ising.FromMaxCut(g)
	hw, _ := Chimera(1)
	e, err := Find(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := e.EmbedModel(m, 0) // default chain strength
	if err != nil {
		t.Fatal(err)
	}
	res, err := anneal.SampleModel(phys, anneal.Params{NumReads: 200, Sweeps: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	groundHits := 0
	total := 0
	for _, s := range res.Samples {
		logical, _ := e.Unembed(s.Mask)
		if m.EnergyBits(logical) == -4 {
			groundHits += s.Occurrences
		}
		total += s.Occurrences
	}
	frac := float64(groundHits) / float64(total)
	if frac < 0.8 {
		t.Errorf("embedded anneal ground fraction = %v, want > 0.8", frac)
	}
}

func TestEmbedModelValidation(t *testing.T) {
	m := ising.FromMaxCut(graph.Cycle(4))
	hw, _ := Chimera(1)
	e, err := Find(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EmbedModel(m, -1); err == nil {
		t.Error("negative chain strength accepted")
	}
	// Corrupt the embedding: empty chain.
	bad := &Embedding{HW: hw, Chains: [][]int{{}}}
	if err := bad.Validate(ising.New(1, nil)); err == nil {
		t.Error("empty chain accepted")
	}
	// Overlapping chains.
	bad2 := &Embedding{HW: hw, Chains: [][]int{{0}, {0}}}
	if err := bad2.Validate(ising.New(2, nil)); err == nil {
		t.Error("overlapping chains accepted")
	}
	// Disconnected chain (left qubits 0 and 1 are not adjacent).
	bad3 := &Embedding{HW: hw, Chains: [][]int{{0, 1}}}
	if err := bad3.Validate(ising.New(1, nil)); err == nil {
		t.Error("disconnected chain accepted")
	}
	// Missing logical coupler.
	m2 := ising.New(2, []ising.Term{{I: 0, J: 1, V: 1}})
	bad4 := &Embedding{HW: hw, Chains: [][]int{{0}, {1}}} // 0 and 1 not adjacent
	if err := bad4.Validate(m2); err == nil {
		t.Error("uncoupled chains accepted")
	}
}
