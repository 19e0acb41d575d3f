package algolib

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qop"
)

// isingOp is an ISING_PROBLEM descriptor holding the params as JSON
// decodes them.
func isingOp(h, couplings []any, offset float64) *qop.Operator {
	op := newOp("ising_problem", qop.IsingProblem, "ising_vars")
	op.SetParam("h", h)
	op.SetParam("couplings", couplings)
	op.SetParam("offset", offset)
	return op
}

func TestIsingModelFromOpRejects(t *testing.T) {
	zeros := []any{0.0, 0.0, 0.0, 0.0}
	pair := func(i, j, v float64) []any { return []any{[]any{i, j, v}} }
	for _, tc := range []struct {
		name      string
		h         []any
		couplings []any
		offset    float64
		want      string // substring of the error
	}{
		{"fractional index", zeros, pair(0.5, 1.9, 1), 0, "coupling 0 index 0.5 is not an integer"},
		{"fractional second index", zeros, pair(0, 1.9, 1), 0, "coupling 0 index 1.9 is not an integer"},
		{"negative fraction", zeros, pair(-0.5, 1, 1), 0, "coupling 0 index -0.5 is not an integer"},
		{"negative index", zeros, pair(-1, 1, 1), 0, "coupling 0 indices (-1,1) invalid"},
		{"index past width", zeros, pair(0, 4, 1), 0, "coupling 0 indices (0,4) invalid"},
		{"huge index", zeros, pair(0, 1e300, 1), 0, "coupling 0 indices (0,1e+300) invalid"},
		{"diagonal", zeros, pair(2, 2, 1), 0, "coupling 0 indices (2,2) invalid"},
		{"second coupling", zeros, append(pair(0, 1, 1), []any{1.0, 2.5, 1.0}), 0, "coupling 1 index 2.5"},
		{"overflowing h", []any{1e308, 1e308, 0.0, 0.0}, nil, 0, "h: the energy bound"},
		{"overflowing couplings", zeros, append(pair(0, 1, 1e308), []any{2.0, 3.0, -1e308}), 0, "couplings: the energy bound"},
		{"overflowing offset plus h", []any{1e308, 0.0, 0.0, 0.0}, nil, 1e308, "h: the energy bound"},
	} {
		_, err := IsingModelFromOp(isingOp(tc.h, tc.couplings, tc.offset), 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// Large but finite: accepted.
	if _, err := IsingModelFromOp(isingOp([]any{1e307, -1e307, 0.0, 0.0}, pair(0, 3, 1e307), -1e307), 4); err != nil {
		t.Errorf("finite bound rejected: %v", err)
	}
}

// FuzzIsingModelFromOp feeds arbitrary h, couplings and offset JSON to the
// ISING_PROBLEM decoder at widths 1–10. It must return an error or a model
// whose energies are finite at every configuration and which survives
// NewIsingProblem → JSON → IsingModelFromOp with identical fields, offset
// and coupling rows; it must never panic.
func FuzzIsingModelFromOp(f *testing.F) {
	f.Add(uint8(3), `[0,0,0,0]`, `[[0,1,1],[1,2,1],[2,3,1],[3,0,1]]`, `0`)
	f.Add(uint8(2), `[0.5,-1,0]`, `[[0,1,2],[1,0,-2],[0,2,0.25]]`, `3.5`)
	f.Fuzz(func(t *testing.T, w uint8, h, couplings, offset string) {
		width := int(w%10) + 1
		params := map[string]string{"h": h, "couplings": couplings, "offset": offset}
		op := newOp("ising_problem", qop.IsingProblem, "ising_vars")
		for key, raw := range params {
			var v any
			if json.Unmarshal([]byte(raw), &v) == nil {
				op.SetParam(key, v)
			}
		}
		m, err := IsingModelFromOp(op, width)
		if err != nil {
			return
		}
		for mask := uint64(0); mask < 1<<width; mask++ {
			if e := m.EnergyBits(mask); math.IsInf(e, 0) || math.IsNaN(e) {
				t.Fatalf("mask %b: energy %v", mask, e)
			}
		}
		enc, err := NewIsingProblem(qdt.NewIsingVars("ising_vars", "s", width), m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := IsingModelFromOp(enc.Clone(), width)
		if err != nil {
			t.Fatalf("re-decoding the encoded model: %v", err)
		}
		if !sameModel(m, back) {
			t.Fatalf("round trip moved the model: %v/%v/%v → %v/%v/%v",
				m.H, m.Offset, slices.Collect(m.Couplings()), back.H, back.Offset, slices.Collect(back.Couplings()))
		}
	})
}

func sameModel(a, b *ising.Model) bool {
	if a.N != b.N || a.Offset != b.Offset || !slices.Equal(a.H, b.H) {
		return false
	}
	for i := 0; i < a.N; i++ {
		an, aj := a.Row(i)
		bn, bj := b.Row(i)
		if !slices.Equal(an, bn) || !slices.Equal(aj, bj) {
			return false
		}
	}
	return true
}
