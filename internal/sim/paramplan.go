package sim

// Parametric compilation: compile a circuit whose rotation angles are
// symbolic ParamRefs once, then Bind(values) per parameter point.
//
// The determinism contract is exact: Bind(v) returns a plan whose
// kernel matrices — and therefore amplitudes and sampled counts — are
// bit-identical to Compile(c.BindValues(v)). It holds because the
// fusion scan records, alongside each in-place matrix mutation, a
// closure that replays the same float operations (gates.Mul2/Mul4,
// Kron2 inside expand2Q, diagonal row scaling) in the same order on the
// bound operand matrices. Fusion *decisions* (what folds with what,
// what commutes) are taken once at template-compile time under generic
// placeholder angles; the only value-dependent inputs to those
// decisions are the two numeric diag classifications (1Q leaf
// off-diagonal test, fuse2Q's isDiag4), and each symbolic occurrence of
// those records a bind-time check. A point whose bound matrices would
// classify differently — degenerate angles such as RX(0) — fails its
// check and transparently falls back to a full concrete compile for
// that point, trading speed for the unchanged contract.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// compileCount counts plan compilations process-wide: both concrete
// Compile calls and CompileParametric template compiles (and degenerate
// Bind fallbacks, which recompile concretely). Sweep tests stat-assert
// compile-once behavior against this counter.
var compileCount atomic.Uint64

// CompileCount returns the process-wide number of plan compilations.
func CompileCount() uint64 { return compileCount.Load() }

// paramRec is the recording sink a parametric compile threads through
// the fusion scan.
type paramRec struct {
	// placeholder holds the generic angles the template compiles under.
	// Their exact values never affect correctness — every numeric
	// classification made under them is re-validated per bind — only
	// how often the fast path applies, so they sit away from the
	// rotation family's degenerate points (multiples of π/2).
	placeholder []float64
	// checks re-run the template's numeric classifications against a
	// bind vector; false means the concrete compile of that point would
	// have diverged and Bind must fall back.
	checks []func(v []float64) bool
}

func (pr *paramRec) check1Q(reb func([]float64) gates.Matrix2, templDiag bool) {
	pr.checks = append(pr.checks, func(v []float64) bool {
		m := reb(v)
		return (m[0][1] == 0 && m[1][0] == 0) == templDiag
	})
}

func (pr *paramRec) check2Q(reb func([]float64) gates.Matrix4, templDiag bool) {
	pr.checks = append(pr.checks, func(v []float64) bool {
		return isDiag4(reb(v)) == templDiag
	})
}

func placeholderValues(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.6366197723675814 + 0.0536712345678911*float64(i)
	}
	return v
}

// boundParams resolves an instruction's parameter list under a bind
// vector: refs[i].Index >= 0 replaces params[i] with Scale*v[Index].
func boundParams(params []float64, refs []circuit.ParamRef, v []float64) []float64 {
	out := append([]float64(nil), params...)
	for i, r := range refs {
		if r.Index >= 0 {
			out[i] = r.Scale * v[r.Index]
		}
	}
	return out
}

// unitary1Rebuild returns the closure rebuilding a symbolic 1Q leaf's
// matrix from a bind vector.
func unitary1Rebuild(ins circuit.Instruction) func(v []float64) gates.Matrix2 {
	gate := ins.Gate
	params := append([]float64(nil), ins.Params...)
	refs := append([]circuit.ParamRef(nil), ins.Refs...)
	return func(v []float64) gates.Matrix2 {
		m, err := gates.Unitary1(gate, boundParams(params, refs, v))
		if err != nil {
			// The template compile already built this gate with the
			// same name and parameter count; Unitary1 cannot fail here.
			panic(fmt.Sprintf("sim: rebind %s: %v", gate, err))
		}
		return m
	}
}

// mul2Rebuild captures fuse1Q's same-qubit fold "t.m = Mul2(k.m, t.m)".
// Both kernels are passed by value before the in-place mutation, so the
// closure holds snapshots of the pre-fold matrices.
func mul2Rebuild(k, t kernel) func(v []float64) gates.Matrix2 {
	ka, ta := k.re1, t.re1
	km, tm := k.m, t.m
	return func(v []float64) gates.Matrix2 {
		a, b := km, tm
		if ka != nil {
			a = ka(v)
		}
		if ta != nil {
			b = ta(v)
		}
		return gates.Mul2(a, b)
	}
}

// fold1QRebuild captures fuse1Q's dense fold
// "t.m4 = Mul4(expand2Q(&k, t.q, t.q2), t.m4)" for a 1Q kernel k
// folding into the dense pair kernel t.
func fold1QRebuild(k, t kernel) func(v []float64) gates.Matrix4 {
	ka, ta := k.re1, t.re2
	kk := kernel{kind: kGate1Q, q: k.q, m: k.m}
	tm4 := t.m4
	q1, q2 := t.q, t.q2
	return func(v []float64) gates.Matrix4 {
		kb := kk
		if ka != nil {
			kb.m = ka(v)
		}
		b := tm4
		if ta != nil {
			b = ta(v)
		}
		return gates.Mul4(expand2Q(&kb, q1, q2), b)
	}
}

// fold2QRebuild captures one step of fuse2Q's accumulation
// "m = Mul4(m, expand2Q(t, qLo, qHi))": prev rebuilds the accumulated
// left factor (nil while it is still the concrete mAcc), and partner t
// — passed by value before its removal from the kernel list — is
// re-expanded from its bound matrices.
func fold2QRebuild(mAcc gates.Matrix4, prev func([]float64) gates.Matrix4, t kernel, qLo, qHi int) func(v []float64) gates.Matrix4 {
	tre1, tre2 := t.re1, t.re2
	return func(v []float64) gates.Matrix4 {
		a := mAcc
		if prev != nil {
			a = prev(v)
		}
		tb := t
		if tre1 != nil {
			tb.m = tre1(v)
		}
		if tre2 != nil {
			tb.m4 = tre2(v)
		}
		return gates.Mul4(a, expand2Q(&tb, qLo, qHi))
	}
}

// rowScaleRebuild captures fuseDiag's row scaling of a dense pair
// kernel by a concrete diagonal d.
func rowScaleRebuild(prev func(v []float64) gates.Matrix4, d [4]complex128) func(v []float64) gates.Matrix4 {
	return func(v []float64) gates.Matrix4 {
		m4 := prev(v)
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				m4[r][c] *= d[r]
			}
		}
		return m4
	}
}

// ParamPlan is a parametrically compiled circuit: the fusion structure,
// kernel order and structural stats are fixed once, and Bind derives
// the concrete plan for one parameter point by recomputing only the
// parameter-dependent kernel matrices (plus their split planes and
// monomial decompositions).
type ParamPlan struct {
	nParams int
	circ    *circuit.Circuit // symbolic source, for the fallback path
	tmpl    *Plan
	rec     *paramRec
	parIdx  []int // template kernel indices with rebuild closures

	binds     atomic.Uint64
	fallbacks atomic.Uint64
}

// CompileParametric compiles a circuit carrying symbolic ParamRefs into
// a reusable template. Symbolic references are supported on
// single-qubit gates (the rotation family the algolib lowerings emit);
// a symbolic reference anywhere else is an error — callers that can
// hold such circuits route those points through the concrete path.
func CompileParametric(c *circuit.Circuit) (*ParamPlan, error) {
	nParams := c.NumParams()
	if nParams == 0 {
		return nil, fmt.Errorf("sim: circuit has no symbolic parameters; use Compile")
	}
	for idx := range c.Instrs {
		ins := &c.Instrs[idx]
		if ins.Symbolic() && (ins.Op != circuit.OpGate || len(ins.Qubits) != 1) {
			return nil, fmt.Errorf("sim: instruction %d: symbolic parameters are only supported on single-qubit gates", idx)
		}
	}
	rec := &paramRec{placeholder: placeholderValues(nParams)}
	tmpl, err := compile(c, rec, maxFuseScan)
	if err != nil {
		return nil, err
	}
	pp := &ParamPlan{nParams: nParams, circ: c.Copy(), tmpl: tmpl, rec: rec}
	for i := range tmpl.kernels {
		if k := &tmpl.kernels[i]; k.re1 != nil || k.re2 != nil {
			pp.parIdx = append(pp.parIdx, i)
		}
	}
	return pp, nil
}

// NumParams returns the length Bind vectors must have.
func (pp *ParamPlan) NumParams() int { return pp.nParams }

// NumQubits returns the qubit count the template was compiled for.
func (pp *ParamPlan) NumQubits() int { return pp.tmpl.n }

// Stats returns the template's fusion statistics. All fields are
// bind-invariant except Monomial2Q, which each bound plan re-derives
// from its concrete matrices (exactly as a concrete compile would).
func (pp *ParamPlan) Stats() PlanStats { return pp.tmpl.stats }

// Binds returns how many Bind calls completed, and how many of those
// took the degenerate-point fallback (a full concrete recompile).
func (pp *ParamPlan) Binds() (binds, fallbacks uint64) {
	return pp.binds.Load(), pp.fallbacks.Load()
}

// Bind derives the concrete plan for one parameter point. The returned
// plan is bit-identical — kernel matrices, amplitudes, sampled counts —
// to Compile of the concretely bound circuit. Bind is safe for
// concurrent use; bound plans share the template's immutable concrete
// kernels.
func (pp *ParamPlan) Bind(values []float64) (*Plan, error) {
	if len(values) != pp.nParams {
		return nil, fmt.Errorf("sim: bind vector has %d values, plan takes %d", len(values), pp.nParams)
	}
	for _, chk := range pp.rec.checks {
		if !chk(values) {
			pp.binds.Add(1)
			pp.fallbacks.Add(1)
			bound, err := pp.circ.BindValues(values)
			if err != nil {
				return nil, err
			}
			return compile(bound, nil, maxFuseScan)
		}
	}
	out := &Plan{n: pp.tmpl.n, stats: pp.tmpl.stats}
	out.kernels = append([]kernel(nil), pp.tmpl.kernels...)
	for _, i := range pp.parIdx {
		k := &out.kernels[i]
		if k.re1 != nil {
			k.m = k.re1(values)
			k.ms = k.m.Split()
		}
		if k.re2 != nil {
			k.m4 = k.re2(values)
			// Re-finalize exactly as compile's finalize loop does: the
			// bound matrix decides monomial vs dense per point.
			if src, ph, ok := monomial4(k.m4); ok {
				if !k.mono {
					out.stats.Monomial2Q++
				}
				k.mono, k.msrc = true, src
				for r := 0; r < 4; r++ {
					k.mphRe[r], k.mphIm[r] = real(ph[r]), imag(ph[r])
				}
			} else {
				if k.mono {
					out.stats.Monomial2Q--
				}
				k.mono = false
				k.m4s = k.m4.Split()
			}
		}
	}
	pp.binds.Add(1)
	return out, nil
}
