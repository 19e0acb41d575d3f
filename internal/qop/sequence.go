package qop

import (
	"fmt"
	"strings"
)

// Sequence is an ordered list of operator descriptors — "composition is
// just a list of descriptors with utilities to check quantum data type
// compatibility and enforce no hidden measurement/reset" (paper §4.4).
type Sequence []*Operator

// QDTWidths maps register IDs to widths; Sequence validation needs only
// widths and identities, not full descriptors, to stay decoupled from qdt.
type QDTWidths map[string]int

// ValidateOptions control sequence-level policy checks.
type ValidateOptions struct {
	// AllowMidCircuit permits MEASUREMENT operators before the final
	// position. The paper requires mid-circuit measurement to be an
	// explicit, opted-into capability ("late parameter binding and
	// adaptive control … while forbidding implicit measurements", §3).
	AllowMidCircuit bool
}

// Validate checks every operator individually, that referenced registers
// exist, that consecutive operators on the same register chain domain to
// codomain, and the no-hidden-measurement rule.
func (s Sequence) Validate(widths QDTWidths, opts ValidateOptions) error {
	var probs []string
	for i, op := range s {
		if op == nil {
			probs = append(probs, fmt.Sprintf("op %d is nil", i))
			continue
		}
		if err := op.Validate(); err != nil {
			probs = append(probs, fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		if _, ok := widths[op.DomainQDT]; !ok {
			probs = append(probs, fmt.Sprintf("op %d (%s): domain_qdt %q is not a declared register", i, op.Name, op.DomainQDT))
		}
		if _, ok := widths[op.CodomainQDT]; !ok {
			probs = append(probs, fmt.Sprintf("op %d (%s): codomain_qdt %q is not a declared register", i, op.Name, op.CodomainQDT))
		}
		if op.RepKind == Measurement && i != len(s)-1 && !opts.AllowMidCircuit {
			probs = append(probs, fmt.Sprintf("op %d (%s): hidden mid-circuit MEASUREMENT (set AllowMidCircuit to permit)", i, op.Name))
		}
		if op.Result != nil {
			w, ok := widths[op.CodomainQDT]
			if ok {
				if err := op.Result.Validate(op.CodomainQDT, w); err != nil {
					probs = append(probs, fmt.Sprintf("op %d (%s): %v", i, op.Name, err))
				}
			}
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("qop sequence: %s", strings.Join(probs, "; "))
	}
	return nil
}

// TotalCostHint folds the operators' cost hints sequentially; operators
// without hints contribute nothing. The bool reports whether every
// operator carried a hint (a scheduler may treat partial totals as lower
// bounds).
func (s Sequence) TotalCostHint() (CostHint, bool) {
	var total CostHint
	complete := true
	for _, op := range s {
		if op.CostHint == nil {
			complete = false
			continue
		}
		total = total.Add(*op.CostHint)
	}
	return total, complete
}

// Registers returns the distinct register IDs referenced by the sequence,
// in first-use order.
func (s Sequence) Registers() []string {
	seen := map[string]bool{}
	var out []string
	for _, op := range s {
		for _, id := range []string{op.DomainQDT, op.CodomainQDT} {
			if id != "" && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// FinalMeasurement returns the trailing MEASUREMENT operator, or nil if the
// sequence does not end in one.
func (s Sequence) FinalMeasurement() *Operator {
	if len(s) == 0 {
		return nil
	}
	last := s[len(s)-1]
	if last != nil && last.RepKind == Measurement {
		return last
	}
	return nil
}

// Invert returns the inverse sequence: each operator inverted, in reverse
// order. A trailing MEASUREMENT (not invertible) is rejected.
func (s Sequence) Invert() (Sequence, error) {
	out := make(Sequence, 0, len(s))
	for i := len(s) - 1; i >= 0; i-- {
		inv, err := s[i].Invert()
		if err != nil {
			return nil, fmt.Errorf("qop: inverting op %d: %w", i, err)
		}
		out = append(out, inv)
	}
	return out, nil
}

// Concat concatenates sequences, cloning every operator so callers can
// mutate the result without aliasing inputs.
func Concat(seqs ...Sequence) Sequence {
	var out Sequence
	for _, s := range seqs {
		for _, op := range s {
			out = append(out, op.Clone())
		}
	}
	return out
}
