package comm

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/ctxdesc"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestBlockPartition(t *testing.T) {
	p, err := BlockPartition(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if p.Assign[q] != 0 {
			t.Errorf("qubit %d on QPU %d, want 0", q, p.Assign[q])
		}
	}
	for q := 4; q < 8; q++ {
		if p.Assign[q] != 1 {
			t.Errorf("qubit %d on QPU %d, want 1", q, p.Assign[q])
		}
	}
	if _, err := BlockPartition(9, 2, 4); err == nil {
		t.Error("over-capacity partition accepted")
	}
	if _, err := BlockPartition(4, 0, 4); err == nil {
		t.Error("zero QPUs accepted")
	}
}

func TestFromContextExplicit(t *testing.T) {
	cfg := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 2, Partition: []int{0, 1, 0, 1}}
	p, err := FromContext(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assign[1] != 1 || p.Assign[2] != 0 {
		t.Errorf("explicit partition ignored: %v", p.Assign)
	}
	// Wrong length.
	if _, err := FromContext(cfg, 5); err == nil {
		t.Error("mismatched explicit partition accepted")
	}
	// Capacity violation.
	over := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 1, Partition: []int{0, 0, 1, 1}}
	if _, err := FromContext(over, 4); err == nil {
		t.Error("over-capacity explicit partition accepted")
	}
	// Bad device index.
	bad := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 4, Partition: []int{0, 5, 0, 0}}
	if _, err := FromContext(bad, 4); err == nil {
		t.Error("nonexistent QPU accepted")
	}
	// More QPUs than qubits, in both forms: refused before any per-QPU
	// table is sized by the request.
	for _, huge := range []*ctxdesc.Comm{
		{QPUs: 1e15, QubitsPerQPU: 1},
		{QPUs: 1e15, QubitsPerQPU: 4, Partition: []int{0, 1, 0, 1}},
	} {
		if _, err := FromContext(huge, 4); err == nil || !strings.Contains(err.Error(), "qpus") {
			t.Errorf("qpus %d for 4 qubits: err %v", huge.QPUs, err)
		}
	}
}

func TestAnalyzeCounts(t *testing.T) {
	p, _ := BlockPartition(4, 2, 2)
	c := circuit.New(4, 0)
	c.H(0)
	c.CX(0, 1) // local (QPU 0)
	c.CX(1, 2) // crossing
	c.CX(2, 3) // local (QPU 1)
	c.CX(0, 3) // crossing
	plan, err := Analyze(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrossingGates != 2 || plan.EPRPairs != 2 || plan.ClassicalBits != 4 {
		t.Errorf("plan = %+v", plan)
	}
	if plan.LocalGates != 3 { // h + 2 local cx
		t.Errorf("local gates = %d, want 3", plan.LocalGates)
	}
	if plan.PerQPUGates[0] != 2 || plan.PerQPUGates[1] != 1 {
		t.Errorf("per-QPU gates = %v", plan.PerQPUGates)
	}
}

func TestAnalyzeRejectsWideGates(t *testing.T) {
	p, _ := BlockPartition(3, 3, 1)
	c := circuit.New(3, 0)
	c.CCX(0, 1, 2)
	if _, err := Analyze(c, p); err == nil {
		t.Error("3-qubit gate analyzed without decomposition")
	}
}

// stateEqualUpToPhase compares two states up to global phase.
func stateEqualUpToPhase(a, b *sim.State, tol float64) bool {
	var phase complex128
	found := false
	for k := 0; k < a.Dim() && !found; k++ {
		if cmplx.Abs(b.Amplitude(uint64(k))) > tol {
			phase = a.Amplitude(uint64(k)) / b.Amplitude(uint64(k))
			found = true
		}
	}
	if !found {
		return false
	}
	for k := 0; k < a.Dim(); k++ {
		if cmplx.Abs(a.Amplitude(uint64(k))-phase*b.Amplitude(uint64(k))) > tol {
			return false
		}
	}
	return true
}

func TestNonLocalCXEquivalence(t *testing.T) {
	// The coherent teleported CX must act exactly like CX on the data
	// qubits, with both ancillas ending in |+⟩ (so H·H returns them to
	// |00⟩ and the full states match).
	r := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		// Random 2-qubit data state.
		angles := make([]float64, 4)
		for i := range angles {
			angles[i] = r.Float64() * 3
		}
		direct := circuit.New(4, 0)
		direct.RY(angles[0], 0).RZ(angles[1], 0).RY(angles[2], 1).RZ(angles[3], 1)
		direct.CX(0, 1)

		tele := circuit.New(4, 0)
		tele.RY(angles[0], 0).RZ(angles[1], 0).RY(angles[2], 1).RZ(angles[3], 1)
		NonLocalCX(tele, 0, 1, 2, 3)
		// Rotate the |+⟩ ancillas back to |0⟩ for exact comparison.
		tele.H(2).H(3)

		s1, err := sim.Evolve(direct)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := sim.Evolve(tele)
		if err != nil {
			t.Fatal(err)
		}
		if !stateEqualUpToPhase(s1, s2, 1e-9) {
			t.Fatalf("trial %d: teleported CX is not equivalent to CX", trial)
		}
	}
}

func TestDistributeBellAcrossQPUs(t *testing.T) {
	// Bell pair across two single-qubit QPUs: the crossing CX is
	// teleported, and the measured distribution is unchanged.
	c := circuit.New(2, 2)
	c.H(0)
	c.CX(0, 1)
	c.MeasureAll()
	cfg := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 1, AllowTeleport: true}
	res, err := Distribute(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.EPRPairs != 1 {
		t.Errorf("EPR pairs = %d, want 1", res.Plan.EPRPairs)
	}
	if res.Circuit.NumQubits != 4 {
		t.Errorf("distributed circuit has %d qubits, want 4", res.Circuit.NumQubits)
	}
	out, err := sim.Run(res.Circuit, sim.Options{Shots: 4000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Counts) != 2 {
		t.Fatalf("distributed Bell outcomes: %v", out.Counts)
	}
	for _, k := range []uint64{0, 3} {
		frac := float64(out.Counts[k]) / 4000
		if math.Abs(frac-0.5) > 0.05 {
			t.Errorf("outcome %d frequency %v", k, frac)
		}
	}
}

func TestDistributeRespectsPolicy(t *testing.T) {
	c := circuit.New(2, 0)
	c.CX(0, 1)
	// Teleport forbidden.
	noTele := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 1, AllowTeleport: false}
	if _, err := Distribute(c, noTele); err == nil {
		t.Error("crossing gate accepted with allow_teleport=false")
	}
	// EPR budget too small.
	tight := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 1, AllowTeleport: true, EPRBufferPairs: 0}
	if _, err := Distribute(c, tight); err != nil {
		t.Errorf("EPR buffer 0 means unlimited: %v", err)
	}
	c2 := circuit.New(2, 0)
	c2.CX(0, 1)
	c2.CX(0, 1)
	budget1 := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 1, AllowTeleport: true, EPRBufferPairs: 1}
	if _, err := Distribute(c2, budget1); err == nil {
		t.Error("2 teleports accepted with 1-pair buffer")
	}
}

func TestDistributeRejectsNonCXCrossing(t *testing.T) {
	c := circuit.New(2, 0)
	c.CPhase(0.5, 0, 1)
	cfg := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 1, AllowTeleport: true}
	if _, err := Distribute(c, cfg); err == nil {
		t.Error("crossing cp accepted (must decompose to cx first)")
	}
}

func TestDistributeLocalOnly(t *testing.T) {
	c := circuit.New(4, 0)
	c.H(0).CX(0, 1).CX(2, 3)
	cfg := &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 2, AllowTeleport: true}
	res, err := Distribute(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.CrossingGates != 0 || res.Circuit.NumQubits != 4 {
		t.Errorf("local-only circuit modified: %+v", res.Plan)
	}
}
