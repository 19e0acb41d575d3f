package main

import (
	"fmt"
	"testing"

	"repro/internal/algolib"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/runtime"
)

const bellQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`

// TestQASMBundleBell: the -qasm ingestion path parses a Bell circuit,
// wraps it as a GATE_LIST bundle, and the gate path samples only the
// two correlated outcomes. The same source and seed reproduce the same
// counts — QASM runs inherit the runtime's determinism contract.
func TestQASMBundleBell(t *testing.T) {
	b, err := qasmBundle(bellQASM, "", 2048, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Submit(b, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 2048 {
		t.Fatalf("samples = %d, want 2048", res.Samples)
	}
	total := 0
	for _, e := range res.Entries {
		if e.Bitstring != "00" && e.Bitstring != "11" {
			t.Fatalf("Bell state sampled %q", e.Bitstring)
		}
		total += e.Count
	}
	if total != 2048 {
		t.Fatalf("counts sum to %d, want 2048", total)
	}

	b2, err := qasmBundle(bellQASM, "", 2048, 9)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := runtime.Submit(b2, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res2.Entries) != fmt.Sprint(res.Entries) {
		t.Fatalf("same QASM+seed produced different counts:\n %v\n %v", res.Entries, res2.Entries)
	}
}

// TestEmitQASMIsTheGateRealization: under a comm block, -emit-qasm prints
// the distributed circuit the gate engine simulates (data qubits plus EPR
// ancillas, in the {sx, rz, cx} basis), not the logical one.
func TestEmitQASMIsTheGateRealization(t *testing.T) {
	reg := qdt.NewPhaseRegister("reg_phase", "phase", 3)
	qft, err := algolib.NewQFT(reg, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxdesc.NewGate("gate.statevector", 64, 1)
	ctx.Comm = &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 2, AllowTeleport: true}
	b, err := bundle.New([]*qdt.DataType{reg}, qop.Sequence{qft, algolib.NewMeasurement(reg)}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	text, err := emitQASM(b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := circuit.FromQASM(text)
	if err != nil {
		t.Fatalf("emitted QASM does not parse: %v\n%s", err, text)
	}
	r, err := backend.RealizeCircuit(b, false, backend.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Comm == nil || r.Circuit.NumQubits <= reg.Width {
		t.Fatalf("realization is not distributed: %d qubits for a width-%d register", r.Circuit.NumQubits, reg.Width)
	}
	if back.NumQubits != r.Circuit.NumQubits || len(back.Instrs) != len(r.Circuit.Instrs) {
		t.Errorf("emitted %d qubits, %d instructions; the engine runs %d qubits, %d instructions",
			back.NumQubits, len(back.Instrs), r.Circuit.NumQubits, len(r.Circuit.Instrs))
	}
}

// TestQASMBundleRejects: parse and validation failures surface as
// errors, not panics.
func TestQASMBundleRejects(t *testing.T) {
	if _, err := qasmBundle("qreg q[2];\nh q[0];", "", 16, 1); err == nil {
		t.Fatal("missing OPENQASM header accepted")
	}
	if _, err := qasmBundle("OPENQASM 2.0;\ncreg c[2];", "", 16, 1); err == nil {
		t.Fatal("no quantum register accepted")
	}
}
