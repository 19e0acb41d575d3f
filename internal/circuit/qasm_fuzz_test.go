package circuit

import (
	"math"
	"strings"
	"testing"
)

// FuzzFromQASM feeds arbitrary text to the QASM parser. It must fail, or
// return a circuit whose every qubit operand is in range and every
// parameter finite, and which ToQASM → FromQASM gives back with the same
// width and instruction count. The committed corpus holds a Bell circuit,
// a QFT as ToQASM writes it, an angle with nested parentheses and an angle
// that overflows.
func FuzzFromQASM(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := FromQASM(src)
		if err != nil {
			return
		}
		for i, ins := range c.Instrs {
			for _, q := range ins.Qubits {
				if q < 0 || q >= c.NumQubits {
					t.Fatalf("instruction %d: qubit %d out of [0,%d)", i, q, c.NumQubits)
				}
			}
			for _, p := range ins.Params {
				if math.IsInf(p, 0) || math.IsNaN(p) {
					t.Fatalf("instruction %d: parameter %v", i, p)
				}
			}
		}
		text, err := c.ToQASM()
		if err != nil {
			t.Fatalf("a parsed circuit does not print: %v", err)
		}
		back, err := FromQASM(text)
		if err != nil {
			t.Fatalf("a parsed circuit's own QASM does not parse: %v\n%s", err, text)
		}
		if back.NumQubits != c.NumQubits || len(back.Instrs) != len(c.Instrs) {
			t.Fatalf("round trip: %d qubits, %d instructions; want %d, %d", back.NumQubits, len(back.Instrs), c.NumQubits, len(c.Instrs))
		}
	})
}

func TestFromQASMRejectsNonFiniteAngle(t *testing.T) {
	_, err := FromQASM("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz(1e308*10) q[0];")
	if err == nil || !strings.Contains(err.Error(), "statement 3") || !strings.Contains(err.Error(), "not finite") {
		t.Errorf("err = %v, want statement 3 refused as not finite", err)
	}
}
