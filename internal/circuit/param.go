package circuit

import (
	"fmt"

	"repro/internal/gates"
)

// ParamRef marks one gate parameter as symbolic. The effective angle
// under a bind vector v is Scale*v[Index]. Scale folds structural
// constants into the reference — e.g. the QAOA cost layer's RZ(2·γ·w)
// lowers to Scale = 2·w — so binding is a single multiplication.
// Because doubling is exact in IEEE-754 and multiplication rounds once,
// Scale*v[Index] is bit-identical to the value the concrete lowering
// computes ((2·γ)·w and (2·w)·γ round the same real number), which is
// what keeps bound plans bit-identical to concrete compiles.
//
// Index < 0 marks a concrete entry (Params holds the value); such
// entries appear in mixed instructions where only some parameters are
// symbolic.
type ParamRef struct {
	Index int     `json:"index"`
	Scale float64 `json:"scale"`
}

// GateRefs appends a parameterized gate carrying symbolic parameter
// references. refs must parallel params; concrete entries use
// ParamRef{Index: -1} and read their value from params.
func (c *Circuit) GateRefs(name gates.Name, qubits []int, params []float64, refs []ParamRef) error {
	return c.Append(Instruction{Op: OpGate, Gate: name, Qubits: qubits, Params: params, Refs: refs})
}

// Symbolic reports whether the instruction carries at least one
// symbolic parameter reference.
func (ins *Instruction) Symbolic() bool {
	for _, r := range ins.Refs {
		if r.Index >= 0 {
			return true
		}
	}
	return false
}

// BoundParams returns the instruction's parameters with symbolic
// entries replaced by Scale*values[Index]. Concrete instructions return
// Params unchanged (no copy). Indices out of range of values panic; the
// caller validates the bind vector length against NumParams.
func (ins *Instruction) BoundParams(values []float64) []float64 {
	if !ins.Symbolic() {
		return ins.Params
	}
	out := append([]float64(nil), ins.Params...)
	for i, r := range ins.Refs {
		if r.Index >= 0 {
			out[i] = r.Scale * values[r.Index]
		}
	}
	return out
}

// HasRefs reports whether any instruction carries a symbolic parameter
// reference.
func (c *Circuit) HasRefs() bool {
	for i := range c.Instrs {
		if c.Instrs[i].Symbolic() {
			return true
		}
	}
	return false
}

// NumParams returns 1 + the largest symbolic parameter index used by
// the circuit — the length a bind vector must have. Fully concrete
// circuits return 0.
func (c *Circuit) NumParams() int {
	max := -1
	for i := range c.Instrs {
		for _, r := range c.Instrs[i].Refs {
			if r.Index > max {
				max = r.Index
			}
		}
	}
	return max + 1
}

// BindValues returns a concrete deep copy with every symbolic reference
// resolved to Scale*values[Index] and Refs cleared. The result is
// exactly the circuit a concrete lowering would have produced for these
// values, so compiling it is the reference semantics for a parametric
// bind.
func (c *Circuit) BindValues(values []float64) (*Circuit, error) {
	if np := c.NumParams(); len(values) < np {
		return nil, fmt.Errorf("circuit: bind vector has %d values, circuit uses %d parameters", len(values), np)
	}
	out := c.Copy()
	for i := range out.Instrs {
		ins := &out.Instrs[i]
		if ins.Symbolic() {
			ins.Params = ins.BoundParams(values)
		}
		ins.Refs = nil
	}
	return out, nil
}
