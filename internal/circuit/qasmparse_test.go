package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gates"
	"repro/internal/rng"
)

func TestFromQASMBell(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	c, err := FromQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 2 || c.NumClbits != 2 {
		t.Fatalf("registers: %dq %dc", c.NumQubits, c.NumClbits)
	}
	counts := c.CountOps()
	if counts["h"] != 1 || counts["cx"] != 1 || counts["measure"] != 2 {
		t.Errorf("ops = %v", counts)
	}
}

func TestFromQASMExpressions(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[1];
rz(pi/2) q[0];
rz(-pi/4) q[0];
rz(3*pi/4) q[0];
u1(0.5) q[0];
rx(2e-1) q[0];
ry((pi+1)/2) q[0];
`
	c, err := FromQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi / 2, -math.Pi / 4, 3 * math.Pi / 4, 0.5, 0.2, (math.Pi + 1) / 2}
	for i, w := range want {
		if math.Abs(c.Instrs[i].Params[0]-w) > 1e-12 {
			t.Errorf("param %d = %v, want %v", i, c.Instrs[i].Params[0], w)
		}
	}
}

func TestFromQASMComments(t *testing.T) {
	src := `OPENQASM 2.0; // header
include "qelib1.inc";
qreg q[1]; // one qubit
// a full-line comment
x q[0];
`
	c, err := FromQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.CountOps()["x"] != 1 {
		t.Errorf("ops = %v", c.CountOps())
	}
}

func TestFromQASMErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no header", "qreg q[1];\nx q[0];"},
		{"bad version", "OPENQASM 3.0;\nqreg q[1];"},
		{"unknown gate", "OPENQASM 2.0;\nqreg q[1];\nwarp q[0];"},
		{"bad operand", "OPENQASM 2.0;\nqreg q[1];\nx r[0];"},
		{"out of range", "OPENQASM 2.0;\nqreg q[1];\nx q[5];"},
		{"double qreg", "OPENQASM 2.0;\nqreg q[1];\nqreg r[1];"},
		{"bad expr", "OPENQASM 2.0;\nqreg q[1];\nrz(pi/) q[0];"},
		{"div zero", "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];"},
		{"not a number", "OPENQASM 2.0;\nqreg q[1];\nrz(1e308*10-1e308*10) q[0];"},
		{"bad measure", "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0];"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromQASM(tc.src); err == nil {
				t.Errorf("accepted:\n%s", tc.src)
			}
		})
	}
}

func TestQASMRoundTrip(t *testing.T) {
	// Property: ToQASM → FromQASM reproduces the instruction stream.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const nq = 4
		c := New(nq, nq)
		for i := 0; i < 15; i++ {
			switch r.Intn(7) {
			case 0:
				c.H(r.Intn(nq))
			case 1:
				c.RZ(r.Float64()*4-2, r.Intn(nq))
			case 2:
				a := r.Intn(nq)
				c.CX(a, (a+1)%nq)
			case 3:
				c.T(r.Intn(nq))
			case 4:
				a := r.Intn(nq)
				c.CPhase(r.Float64(), a, (a+2)%nq)
			case 5:
				c.SXGate(r.Intn(nq))
			case 6:
				c.Phase(r.Float64(), r.Intn(nq))
			}
		}
		c.MeasureAll()
		text, err := c.ToQASM()
		if err != nil {
			return false
		}
		back, err := FromQASM(text)
		if err != nil {
			return false
		}
		if len(back.Instrs) != len(c.Instrs) {
			return false
		}
		for i := range c.Instrs {
			a, b := c.Instrs[i], back.Instrs[i]
			if a.Op != b.Op || a.Gate != b.Gate || len(a.Qubits) != len(b.Qubits) {
				return false
			}
			for j := range a.Qubits {
				if a.Qubits[j] != b.Qubits[j] {
					return false
				}
			}
			for j := range a.Params {
				if math.Abs(a.Params[j]-b.Params[j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQASMRoundTripBarrier(t *testing.T) {
	c := New(3, 0)
	c.H(0)
	c.Barrier()
	c.Barrier(0, 2)
	c.Gate(gates.CSWAP, []int{0, 1, 2})
	text, err := c.ToQASM()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromQASM(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Instrs) != 4 {
		t.Fatalf("round trip gave %d instrs", len(back.Instrs))
	}
	if len(back.Instrs[1].Qubits) != 0 {
		t.Error("full barrier not preserved")
	}
	if len(back.Instrs[2].Qubits) != 2 {
		t.Error("partial barrier not preserved")
	}
}
