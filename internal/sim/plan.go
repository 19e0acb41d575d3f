package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"time"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/obs"
)

// This file implements the compile-then-execute engine: a circuit is
// lowered once into a kernel sequence (Compile), and the kernels are then
// swept over the statevector by the persistent shard pool (Execute). The
// compile step fuses runs of single-qubit gates on the same qubit into one
// 2×2 matrix, merges consecutive diagonal/phase gates into a single
// diagonal kernel, and specializes controlled permutations, so a deep
// circuit needs far fewer bandwidth-bound sweeps than one per gate.
//
// Fusion composes kernels as complex matrices; at Compile finalize every
// kernel matrix and phase table is split once into real/imaginary float64
// parts (gates.Split2/Split4, the ph*/amp* plane slices), so the execution
// sweeps are branch-free float arithmetic over the state's split planes
// with no complex deinterleave per element.

// kernelKind enumerates the sweep shapes the executor knows.
type kernelKind uint8

const (
	// kGate1Q applies a fused 2×2 unitary to one qubit, iterating the
	// 2^(n-1) amplitude pairs directly.
	kGate1Q kernelKind = iota
	// kGate2Q applies a fused dense 4×4 unitary to a qubit pair, iterating
	// the 2^(n-2) amplitude quadruples directly — the merged form of
	// CX/CZ/CP/SWAP chains on one pair together with the single-qubit
	// gates surrounding them.
	kGate2Q
	// kCtrlPerm swaps amplitude pairs over the subspace selected by
	// constrained bits — the specialization of CX, SWAP, CCX and CSWAP.
	kCtrlPerm
	// kCtrlPhase multiplies one phase onto the all-ones subspace of its
	// qubits — the specialization of CZ and CP before any merging.
	kCtrlPhase
	// kDiag multiplies a phase table indexed by a gathered local index —
	// the merged form of runs of diagonal gates.
	kDiag
	// kPermute and kInit are the scratch-buffer natives.
	kPermute
	kInit
)

// bitInsert expands a compact subspace index by one constrained bit; see
// expandIndex. Inserts are ordered by ascending bit position.
type bitInsert struct {
	low int // mask of the bits below the constrained position
	bit int // the constrained value, shifted into place
}

// expandIndex maps a compact index over the free bits to a full amplitude
// index with every constrained bit set to its required value.
func expandIndex(c int, inserts []bitInsert) int {
	for _, ins := range inserts {
		c = (c&^ins.low)<<1 | ins.bit | c&ins.low
	}
	return c
}

// kernel is one compiled sweep.
type kernel struct {
	kind    kernelKind
	support int  // bitmask of touched qubits
	diag    bool // diagonal in the computational basis

	// kGate1Q (q only) / kGate2Q (q is the lower qubit, q2 the higher).
	// The complex matrices are the fusion-time representation; ms/m4s are
	// their split real/imag planes, derived once at Compile finalize and
	// the only form the sweeps read.
	q   int
	q2  int
	m   gates.Matrix2
	ms  gates.Split2
	m4  gates.Matrix4
	m4s gates.Split4
	// Monomial decomposition of m4 (permutation × phase: exactly one
	// nonzero per row and column), precomputed at Compile finalize. The
	// sweep then costs 4 complex multiplies per quadruple instead of the
	// dense kernel's 16 multiplies + 12 adds: out[r] = mph[r]·in[msrc[r]].
	mono  bool
	msrc  [4]int
	mphRe [4]float64
	mphIm [4]float64

	// kCtrlPerm / kCtrlPhase
	inserts []bitInsert
	free    int // number of unconstrained bits; the sweep runs 2^free trips
	flip    int // kCtrlPerm: XOR mask exchanging the amplitude pair
	phase   complex128

	// kDiag / kPermute / kInit (local indexing: qubits[k] is bit k).
	// phases/amps are the complex merge-time tables; phRe/phIm and
	// ampRe/ampIm the split planes the sweeps read (finishDiag keeps the
	// diagonal split in lockstep with table merges).
	qubits []int
	masks  []int
	phases []complex128
	phRe   []float64
	phIm   []float64
	perm   []uint64
	amps   []complex128
	ampRe  []float64
	ampIm  []float64

	// Parametric recording (CompileParametric only; always nil in
	// concrete plans). re1/re2 rebuild this kernel's fused matrix from a
	// bound parameter vector by replaying the exact sequence of
	// Mul2/Mul4/Kron2/row-scale operations the fusion scan performed —
	// same operations, same order, same float rounding — so a bound
	// kernel matrix is bit-identical to the one a concrete compile of
	// the bound circuit would produce.
	re1 func(v []float64) gates.Matrix2
	re2 func(v []float64) gates.Matrix4
}

// PlanStats reports what compilation achieved.
type PlanStats struct {
	// SourceOps counts compiled instructions (measurements and barriers
	// excluded).
	SourceOps int
	// Kernels is the length of the compiled sequence; SourceOps−Kernels
	// sweeps were eliminated by fusion.
	Kernels int
	// Fused1Q counts single-qubit gates folded into an earlier 2×2 kernel.
	Fused1Q int
	// Fused2Q counts gates of any arity folded into a dense 4×4 two-qubit
	// kernel: same-pair CX/CZ/CP/SWAP chains, the single-qubit gates
	// surrounding them, and pair-local diagonals.
	Fused2Q int
	// MergedDiag counts diagonal gates (CZ/CP/Diagonal) merged into an
	// earlier phase kernel.
	MergedDiag int
	// Monomial2Q counts dense 4×4 kernels that finalized as permutation ×
	// phase — pure CX/CZ/SWAP/S-style chains — and execute on the
	// 4-multiply monomial sweep instead of the full dense sweep.
	Monomial2Q int
}

// Plan is a compiled circuit: a kernel sequence ready to execute against
// any state with the right qubit count. Plans are immutable after Compile
// and safe for concurrent Execute calls on distinct states.
type Plan struct {
	n       int
	kernels []kernel
	stats   PlanStats

	// par is the parametric recording sink during CompileParametric;
	// nil for concrete compiles.
	par *paramRec
	// fuseScan is how many kernels back the three fusion scans may look:
	// maxFuseScan for every exported compile, 0 for the unfused compile
	// the noise trajectories run, which keeps each instruction in a kernel
	// of its own so an error can be injected after any gate.
	fuseScan int
}

// NumQubits returns the qubit count the plan was compiled for.
func (pl *Plan) NumQubits() int { return pl.n }

// Stats returns the compile-time fusion statistics.
func (pl *Plan) Stats() PlanStats { return pl.stats }

// maxFuseScan bounds how far the compiler looks back for a fusion partner
// while hopping over commuting kernels, so compilation stays linear in
// depth. 64 comfortably covers a full layer on MaxQubits qubits.
const maxFuseScan = 64

// maxDiagFuseQubits caps the qubit support of a merged diagonal kernel;
// the phase table holds 2^k entries and the gather costs k operations per
// amplitude, so growth past a cache line of table stops paying.
const maxDiagFuseQubits = 8

// Compile lowers a circuit into a kernel plan. It performs all static
// validation (qubit bounds, operand distinctness, table sizes, init
// normalization), so Execute can sweep without per-gate checks.
// Measurements must be terminal, exactly as in Evolve.
func Compile(c *circuit.Circuit) (*Plan, error) {
	if c.HasRefs() {
		return nil, fmt.Errorf("sim: circuit carries symbolic parameter references; use CompileParametric")
	}
	return compile(c, nil, maxFuseScan)
}

// compile is the shared body of Compile, CompileParametric and the
// trajectory engine's unfused compile. A non-nil par makes the lowering
// record matrix-rebuild closures and classification checks for symbolic
// instructions. With fuseScan 0 nothing fuses: kernel i is the i-th
// instruction that is neither a measurement nor a barrier, in the form
// and with the operands lower gives it. Every call — the entry points,
// the degenerate-bind fallback and RunNoisy — bumps CompileCount.
func compile(c *circuit.Circuit, par *paramRec, fuseScan int) (*Plan, error) {
	compileCount.Add(1)
	if c.NumQubits < 1 || c.NumQubits > MaxQubits {
		return nil, fmt.Errorf("sim: qubit count %d out of [1,%d]", c.NumQubits, MaxQubits)
	}
	pl := &Plan{n: c.NumQubits, par: par, fuseScan: fuseScan}
	seenMeasure := false
	for idx, ins := range c.Instrs {
		switch ins.Op {
		case circuit.OpMeasure:
			seenMeasure = true
			continue
		case circuit.OpBarrier:
			continue
		}
		if seenMeasure {
			return nil, fmt.Errorf("sim: instruction %d follows a measurement; mid-circuit measurement is not supported by the statevector engine", idx)
		}
		if err := pl.lower(ins); err != nil {
			return nil, fmt.Errorf("sim: instruction %d: %w", idx, err)
		}
		pl.stats.SourceOps++
	}
	// Finalize: fusion is done mutating kernels, so matrix contents and
	// monomial structure are now stable. Split every kernel matrix into
	// real/imag planes once, and downgrade any dense 4×4 that ended up
	// permutation×phase (a pure CX/CZ/SWAP chain, possibly with
	// X/Z/S-style 1Q gates folded in) to the 4-multiply monomial sweep.
	for i := range pl.kernels {
		k := &pl.kernels[i]
		switch k.kind {
		case kGate1Q:
			k.ms = k.m.Split()
		case kGate2Q:
			if src, ph, ok := monomial4(k.m4); ok {
				k.mono, k.msrc = true, src
				for r := 0; r < 4; r++ {
					k.mphRe[r], k.mphIm[r] = real(ph[r]), imag(ph[r])
				}
				pl.stats.Monomial2Q++
				continue
			}
			k.m4s = k.m4.Split()
		}
	}
	pl.stats.Kernels = len(pl.kernels)
	return pl, nil
}

// monomial4 decomposes m as out[r] = ph[r]·in[src[r]] when every row and
// column holds exactly one nonzero entry. The zero test is exact, like
// isDiag4's: products and Kronecker factors of exact-zero patterns stay
// exactly zero, so gate chains that are structurally permutation×phase
// are recognized without a tolerance; a false negative only costs the
// fast path, never correctness.
func monomial4(m gates.Matrix4) (src [4]int, ph [4]complex128, ok bool) {
	var colUsed [4]bool
	for r := 0; r < 4; r++ {
		found := -1
		for c := 0; c < 4; c++ {
			if m[r][c] != 0 {
				if found >= 0 {
					return src, ph, false
				}
				found = c
			}
		}
		if found < 0 || colUsed[found] {
			return src, ph, false
		}
		colUsed[found] = true
		src[r] = found
		ph[r] = m[r][found]
	}
	return src, ph, true
}

func (pl *Plan) checkQubits(qs ...int) error {
	seen := 0
	for _, q := range qs {
		if q < 0 || q >= pl.n {
			return fmt.Errorf("sim: qubit %d out of [0,%d)", q, pl.n)
		}
		if seen&(1<<q) != 0 {
			return fmt.Errorf("sim: duplicate qubit %d", q)
		}
		seen |= 1 << q
	}
	return nil
}

// lower turns one instruction into a primitive kernel and appends it with
// fusion.
func (pl *Plan) lower(ins circuit.Instruction) error {
	switch ins.Op {
	case circuit.OpGate:
		switch ins.Gate {
		case gates.CX:
			return pl.lower2Q(ins.Gate, ins.Qubits[0], ins.Qubits[1])
		case gates.SWAP:
			return pl.lower2Q(ins.Gate, ins.Qubits[0], ins.Qubits[1])
		case gates.CCX:
			return pl.lowerCtrlPerm(
				[]int{ins.Qubits[0], ins.Qubits[1]}, []int{ins.Qubits[2]}, 1<<ins.Qubits[2])
		case gates.CSWAP:
			return pl.lowerCtrlPerm(
				[]int{ins.Qubits[0], ins.Qubits[1]}, []int{ins.Qubits[2]},
				1<<ins.Qubits[1]|1<<ins.Qubits[2])
		case gates.CZ:
			return pl.lowerCtrlPhase(ins.Qubits, -1)
		case gates.CP:
			return pl.lowerCtrlPhase(ins.Qubits, cmplx.Exp(complex(0, ins.Params[0])))
		default:
			params := ins.Params
			var reb func(v []float64) gates.Matrix2
			if pl.par != nil && ins.Symbolic() {
				reb = unitary1Rebuild(ins)
				params = boundParams(ins.Params, ins.Refs, pl.par.placeholder)
			}
			m, err := gates.Unitary1(ins.Gate, params)
			if err != nil {
				return err
			}
			q := ins.Qubits[0]
			if err := pl.checkQubits(q); err != nil {
				return err
			}
			k := kernel{
				kind: kGate1Q, support: 1 << q, q: q, m: m,
				diag: m[0][1] == 0 && m[1][0] == 0,
				re1:  reb,
			}
			if reb != nil {
				// The leaf's diag classification is numeric; record a
				// bind-time re-check so a degenerate angle (which would
				// classify differently in a concrete compile, changing
				// fusion decisions downstream) falls back.
				pl.par.check1Q(reb, k.diag)
			}
			pl.fuse1Q(k)
			return nil
		}
	case circuit.OpDiagonal:
		if err := pl.checkQubits(ins.Qubits...); err != nil {
			return err
		}
		if len(ins.Phases) != 1<<len(ins.Qubits) {
			return fmt.Errorf("sim: diagonal table size %d != 2^%d", len(ins.Phases), len(ins.Qubits))
		}
		k := kernel{kind: kDiag, diag: true}
		k.qubits = append([]int(nil), ins.Qubits...)
		k.phases = append([]complex128(nil), ins.Phases...)
		k.finishDiag()
		pl.fuseDiag(k)
		return nil
	case circuit.OpPermute:
		if err := pl.checkQubits(ins.Qubits...); err != nil {
			return err
		}
		if len(ins.Perm) != 1<<len(ins.Qubits) {
			return fmt.Errorf("sim: permutation table size %d != 2^%d", len(ins.Perm), len(ins.Qubits))
		}
		k := kernel{kind: kPermute, support: qubitMask(ins.Qubits)}
		k.qubits = append([]int(nil), ins.Qubits...)
		k.perm = append([]uint64(nil), ins.Perm...)
		k.masks = qubitMasks(ins.Qubits)
		pl.kernels = append(pl.kernels, k)
		return nil
	case circuit.OpInit:
		if err := pl.checkQubits(ins.Qubits...); err != nil {
			return err
		}
		if len(ins.Amps) != 1<<len(ins.Qubits) {
			return fmt.Errorf("sim: init state size %d != 2^%d", len(ins.Amps), len(ins.Qubits))
		}
		norm := 0.0
		for _, a := range ins.Amps {
			norm += real(a)*real(a) + imag(a)*imag(a)
		}
		if math.Abs(norm-1) > 1e-9 {
			return fmt.Errorf("sim: init state not normalized (norm² = %v)", norm)
		}
		k := kernel{kind: kInit, support: qubitMask(ins.Qubits)}
		k.qubits = append([]int(nil), ins.Qubits...)
		k.amps = append([]complex128(nil), ins.Amps...)
		k.ampRe, k.ampIm = splitComplexSlice(k.amps)
		k.masks = qubitMasks(ins.Qubits)
		pl.kernels = append(pl.kernels, k)
		return nil
	}
	return fmt.Errorf("sim: unhandled opcode %d", ins.Op)
}

// lowerCtrlPerm builds the subspace-swap kernel for CCX/CSWAP (and for
// CX/SWAP when dense fusion finds no partner): ones lists bits constrained
// to 1, zeros bits constrained to 0 (the pair member the sweep visits),
// flip exchanges the pair.
func (pl *Plan) lowerCtrlPerm(ones, zeros []int, flip int) error {
	qs := append(append([]int(nil), ones...), zeros...)
	if err := pl.checkQubits(qs...); err != nil {
		return err
	}
	pl.kernels = append(pl.kernels, newCtrlPerm(ones, zeros, flip, pl.n))
	return nil
}

func newCtrlPerm(ones, zeros []int, flip, n int) kernel {
	qs := append(append([]int(nil), ones...), zeros...)
	return kernel{
		kind:    kCtrlPerm,
		support: qubitMask(qs),
		inserts: makeInserts(ones, zeros),
		free:    n - len(qs),
		flip:    flip,
	}
}

// lower2Q lowers CX or SWAP through the dense-fusion scan: the gate folds
// with any earlier kernels on its pair into one 4×4 unitary, or keeps its
// cheap subspace-exchange form when nothing folds.
func (pl *Plan) lower2Q(g gates.Name, a, b int) error {
	if err := pl.checkQubits(a, b); err != nil {
		return err
	}
	qLo, qHi := min(a, b), max(a, b)
	var m gates.Matrix4
	var plain kernel
	switch g {
	case gates.CX:
		m = mat4CX(a == qHi)
		plain = newCtrlPerm([]int{a}, []int{b}, 1<<b, pl.n)
	case gates.SWAP:
		m = mat4Swap()
		plain = newCtrlPerm([]int{a}, []int{b}, 1<<a|1<<b, pl.n)
	}
	pl.fuse2Q(qLo, qHi, m, plain)
	return nil
}

func (pl *Plan) lowerCtrlPhase(qubits []int, ph complex128) error {
	if err := pl.checkQubits(qubits...); err != nil {
		return err
	}
	k := kernel{
		kind:    kCtrlPhase,
		support: qubitMask(qubits),
		diag:    true,
		inserts: makeInserts(qubits, nil),
		free:    pl.n - len(qubits),
		phase:   ph,
	}
	k.qubits = append([]int(nil), qubits...)
	pl.fuseDiag(k)
	return nil
}

// makeInserts builds the bit-insert list for the constrained positions:
// ones are fixed to 1, zeros to 0. Positions must be distinct.
func makeInserts(ones, zeros []int) []bitInsert {
	type con struct{ pos, val int }
	cons := make([]con, 0, len(ones)+len(zeros))
	for _, p := range ones {
		cons = append(cons, con{p, 1})
	}
	for _, p := range zeros {
		cons = append(cons, con{p, 0})
	}
	// Insertion sort by position ascending (≤ 3 constraints in practice).
	for i := 1; i < len(cons); i++ {
		for j := i; j > 0 && cons[j].pos < cons[j-1].pos; j-- {
			cons[j], cons[j-1] = cons[j-1], cons[j]
		}
	}
	inserts := make([]bitInsert, len(cons))
	for i, c := range cons {
		inserts[i] = bitInsert{low: 1<<c.pos - 1, bit: c.val << c.pos}
	}
	return inserts
}

func qubitMask(qs []int) int {
	m := 0
	for _, q := range qs {
		m |= 1 << q
	}
	return m
}

func qubitMasks(qs []int) []int {
	masks := make([]int, len(qs))
	for i, q := range qs {
		masks[i] = 1 << q
	}
	return masks
}

// finishDiag derives the cached fields of a kDiag kernel from its qubit
// list and phase table — including the split real/imag planes the sweep
// reads, so table merges (mergeDiag, toDiag) can never leave the split
// form stale.
func (k *kernel) finishDiag() {
	k.support = qubitMask(k.qubits)
	k.masks = qubitMasks(k.qubits)
	k.phRe, k.phIm = splitComplexSlice(k.phases)
}

// commutes reports whether two kernels commute: disjoint qubit support, or
// both diagonal in the computational basis. The fusion scan may hop over a
// commuting kernel without changing circuit semantics.
func commutes(a, b *kernel) bool {
	return a.support&b.support == 0 || (a.diag && b.diag)
}

// ---- dense two-qubit fusion ----

var id2 = gates.Matrix2{{1, 0}, {0, 1}}

// mat4CX returns CX over the local pair basis: ctrlHigh selects whether
// the control sits on local bit 1 (the higher qubit position) or bit 0.
func mat4CX(ctrlHigh bool) gates.Matrix4 {
	if ctrlHigh {
		return gates.Matrix4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}}
	}
	return gates.Matrix4{{1, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}, {0, 1, 0, 0}}
}

func mat4Swap() gates.Matrix4 {
	return gates.Matrix4{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}}
}

func mat4CPhase(ph complex128) gates.Matrix4 {
	return gates.Matrix4{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, ph}}
}

// isDiag4 reports whether every off-diagonal entry is exactly zero (float
// products of diagonal factors stay exactly diagonal, so the check is not
// tolerance-sensitive; a false negative only costs a fusion hop).
func isDiag4(m gates.Matrix4) bool {
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && m[i][j] != 0 {
				return false
			}
		}
	}
	return true
}

// isPairSupport reports whether the mask covers exactly two qubits.
func isPairSupport(mask int) bool {
	return bits.OnesCount(uint(mask)) == 2
}

// diag4For maps a diagonal kernel with support ⊆ {qLo, qHi} onto the
// four-entry diagonal over the pair's local basis.
func diag4For(k *kernel, qLo, qHi int) [4]complex128 {
	if k.kind == kCtrlPhase {
		return [4]complex128{1, 1, 1, k.phase}
	}
	var d [4]complex128
	for l := 0; l < 4; l++ {
		dl := 0
		for bit, q := range k.qubits {
			if (q == qLo && l&1 != 0) || (q == qHi && l&2 != 0) {
				dl |= 1 << bit
			}
		}
		d[l] = k.phases[dl]
	}
	return d
}

// expand2Q returns a foldable kernel's 4×4 unitary in the local basis of
// the pair (qLo, qHi): bit 0 is qLo's value, bit 1 is qHi's.
func expand2Q(t *kernel, qLo, qHi int) gates.Matrix4 {
	switch t.kind {
	case kGate2Q:
		return t.m4
	case kGate1Q:
		if t.q == qHi {
			return gates.Kron2(t.m, id2)
		}
		return gates.Kron2(id2, t.m)
	case kCtrlPhase:
		return mat4CPhase(t.phase)
	case kCtrlPerm:
		if t.flip == t.support {
			return mat4Swap()
		}
		return mat4CX(t.support&^t.flip == 1<<qHi)
	case kDiag:
		var m gates.Matrix4
		d := diag4For(t, qLo, qHi)
		for l := 0; l < 4; l++ {
			m[l][l] = d[l]
		}
		return m
	}
	return gates.Matrix4{}
}

// fold2QPartner reports whether t can fold into a dense 4×4 on the pair:
// any kernel on exactly that pair, a single-qubit kernel on either qubit,
// or a pair-local diagonal table.
func fold2QPartner(t *kernel, pairMask int) bool {
	switch t.kind {
	case kGate2Q, kCtrlPerm, kCtrlPhase:
		return t.support == pairMask
	case kGate1Q, kDiag:
		return t.support&^pairMask == 0
	}
	return false
}

// toGate2Q rewrites a two-qubit specialized kernel (kCtrlPerm for CX/SWAP,
// or kCtrlPhase) in place as the equivalent dense 4×4 kernel.
func (k *kernel) toGate2Q() {
	qLo := bits.TrailingZeros(uint(k.support))
	qHi := bits.Len(uint(k.support)) - 1
	m := expand2Q(k, qLo, qHi)
	*k = kernel{
		kind: kGate2Q, support: 1<<qLo | 1<<qHi,
		q: qLo, q2: qHi, m4: m, diag: k.diag,
	}
}

// fuse2Q appends a two-qubit gate on the pair (qLo, qHi), scanning back
// over commuting kernels and absorbing every foldable kernel it reaches —
// earlier dense 4×4s, specialized same-pair CX/SWAP/CZ/CP kernels,
// single-qubit kernels on either qubit, and pair-local diagonals — into
// one dense 4×4 unitary, mirroring fuse1Q's commute-aware backward scan.
// Partners are composed in program order (the matrix product accumulates
// latest-first on the left), and each absorbed kernel is removed from the
// sequence; hopped kernels commute with the pair's support, so reordering
// the partners to the append point preserves circuit semantics. When
// nothing folds the gate keeps its specialized form (plain): a lone CX
// sweeps only half the state as a pair exchange, which a dense 4×4 — a
// full-state sweep — would make slower, not faster.
func (pl *Plan) fuse2Q(qLo, qHi int, m gates.Matrix4, plain kernel) {
	pairMask := 1<<qLo | 1<<qHi
	probe := kernel{support: pairMask}
	folded := false
	floor := len(pl.kernels) - pl.fuseScan
	if floor < 0 {
		floor = 0
	}
	var reb func(v []float64) gates.Matrix4
	for i := len(pl.kernels) - 1; i >= floor; i-- {
		t := &pl.kernels[i]
		if fold2QPartner(t, pairMask) {
			if reb != nil || t.re1 != nil || t.re2 != nil {
				reb = fold2QRebuild(m, reb, *t, qLo, qHi)
			}
			m = gates.Mul4(m, expand2Q(t, qLo, qHi))
			pl.kernels = append(pl.kernels[:i], pl.kernels[i+1:]...)
			pl.stats.Fused2Q++
			folded = true
			continue
		}
		if !commutes(t, &probe) {
			break
		}
	}
	if !folded {
		pl.kernels = append(pl.kernels, plain)
		return
	}
	nk := kernel{
		kind: kGate2Q, support: pairMask,
		q: qLo, q2: qHi, m4: m, diag: isDiag4(m),
		re2: reb,
	}
	if reb != nil {
		// Like the 1Q leaf diag flag, this kernel's diag classification
		// is numeric and feeds later commute/fold decisions: re-check it
		// per bind against the bound product.
		pl.par.check2Q(reb, nk.diag)
	}
	pl.kernels = append(pl.kernels, nk)
}

// fuse1Q appends a single-qubit kernel, first scanning back over commuting
// kernels for a fold target: an earlier single-qubit kernel on the same
// qubit, or a dense two-qubit kernel covering the qubit. A non-commuting
// two-qubit specialized kernel (CX/SWAP/CZ/CP) on the qubit promotes to a
// dense 4×4 and absorbs the gate — that trade replaces a full one-qubit
// sweep plus the pair sweep with one full sweep.
func (pl *Plan) fuse1Q(k kernel) {
	floor := len(pl.kernels) - pl.fuseScan
	for i := len(pl.kernels) - 1; i >= 0 && i >= floor; i-- {
		t := &pl.kernels[i]
		if t.kind == kGate1Q && t.q == k.q {
			if t.re1 != nil || k.re1 != nil {
				t.re1 = mul2Rebuild(k, *t)
			}
			t.m = gates.Mul2(k.m, t.m) // t ran first: new = k·t
			t.diag = t.diag && k.diag
			pl.stats.Fused1Q++
			return
		}
		if t.kind == kGate2Q && t.support&k.support != 0 {
			if t.re2 != nil || k.re1 != nil {
				t.re2 = fold1QRebuild(k, *t)
			}
			t.m4 = gates.Mul4(expand2Q(&k, t.q, t.q2), t.m4)
			t.diag = t.diag && k.diag
			pl.stats.Fused2Q++
			return
		}
		if commutes(t, &k) {
			// Hopping before considering promotion lets a diagonal
			// single-qubit gate pass over a controlled phase unchanged, so
			// CZ/CP runs keep merging as cheap phase kernels.
			continue
		}
		if (t.kind == kCtrlPerm || t.kind == kCtrlPhase) && isPairSupport(t.support) {
			// Non-commuting, so t touches k.q: promote and fold.
			t.toGate2Q()
			if k.re1 != nil {
				t.re2 = fold1QRebuild(k, *t)
			}
			t.m4 = gates.Mul4(expand2Q(&k, t.q, t.q2), t.m4)
			t.diag = t.diag && k.diag
			pl.stats.Fused2Q++
			return
		}
		break
	}
	pl.kernels = append(pl.kernels, k)
}

// fuseDiag appends a diagonal kernel (kCtrlPhase or kDiag), merging it
// into an earlier phase kernel when the combined qubit support stays
// within maxDiagFuseQubits, or into a dense two-qubit kernel covering its
// support. Two controlled phases on the same qubit pair collapse without
// building a table at all.
func (pl *Plan) fuseDiag(k kernel) {
	floor := len(pl.kernels) - pl.fuseScan
	for i := len(pl.kernels) - 1; i >= 0 && i >= floor; i-- {
		t := &pl.kernels[i]
		if t.kind == kCtrlPhase && k.kind == kCtrlPhase && t.support == k.support {
			t.phase *= k.phase
			pl.stats.MergedDiag++
			return
		}
		if t.kind == kGate2Q && k.support&^t.support == 0 {
			// The diagonal acts only on the dense kernel's pair: scale the
			// 4×4's rows in place.
			d := diag4For(&k, t.q, t.q2)
			if t.re2 != nil {
				t.re2 = rowScaleRebuild(t.re2, d)
			}
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					t.m4[r][c] *= d[r]
				}
			}
			pl.stats.Fused2Q++
			return
		}
		if (t.kind == kCtrlPhase || t.kind == kDiag) &&
			bits.OnesCount(uint(t.support|k.support)) <= maxDiagFuseQubits {
			t.toDiag()
			mergeDiag(t, &k)
			pl.stats.MergedDiag++
			return
		}
		if !commutes(t, &k) {
			break
		}
	}
	pl.kernels = append(pl.kernels, k)
}

// toDiag rewrites a kCtrlPhase kernel as an equivalent kDiag table (the
// identity everywhere except the all-ones local index).
func (k *kernel) toDiag() {
	if k.kind != kCtrlPhase {
		return
	}
	n := len(k.qubits)
	phases := make([]complex128, 1<<n)
	for i := range phases {
		phases[i] = 1
	}
	phases[len(phases)-1] = k.phase
	k.kind = kDiag
	k.phases = phases
	k.inserts = nil
	k.finishDiag()
}

// mergeDiag folds src (kCtrlPhase or kDiag) into the kDiag kernel dst,
// extending dst's qubit list with src's new qubits and multiplying the
// phase tables pointwise over the union index space.
func mergeDiag(dst, src *kernel) {
	src.toDiag()
	union := append([]int(nil), dst.qubits...)
	for _, q := range src.qubits {
		if qubitMask(union)&(1<<q) == 0 {
			union = append(union, q)
		}
	}
	// posIn[i] maps union bit i to the kernel's local bit, or -1.
	posIn := func(k *kernel) []int {
		pos := make([]int, len(union))
		for i, uq := range union {
			pos[i] = -1
			for j, q := range k.qubits {
				if q == uq {
					pos[i] = j
					break
				}
			}
		}
		return pos
	}
	dstPos, srcPos := posIn(dst), posIn(src)
	phases := make([]complex128, 1<<len(union))
	for local := range phases {
		dl, sl := 0, 0
		for i := 0; i < len(union); i++ {
			if local>>i&1 == 1 {
				if dstPos[i] >= 0 {
					dl |= 1 << dstPos[i]
				}
				if srcPos[i] >= 0 {
					sl |= 1 << srcPos[i]
				}
			}
		}
		phases[local] = dst.phases[dl] * src.phases[sl]
	}
	dst.qubits = union
	dst.phases = phases
	dst.finishDiag()
}

// Execute applies the plan to st, sweeping each kernel across the shard
// pool with a barrier between kernels. shards ≤ 0 selects automatically
// (single-shard below the parallel threshold, GOMAXPROCS above).
func (pl *Plan) Execute(st *State, shards int) error {
	if st.n != pl.n {
		return fmt.Errorf("sim: plan compiled for %d qubits, state has %d", pl.n, st.n)
	}
	pool := newShardPool(resolveShards(st.Dim(), shards))
	defer pool.close()
	return pl.executeOn(st, pool, nil)
}

// executeOn runs the kernel sequence on an existing pool; Run reuses the
// same pool afterwards for the CDF build. Every kernel feeds the
// always-on per-kind instruments; when prof is non-nil, each sweep
// closure is additionally wrapped to accumulate per-shard times for the
// opt-in kernel table. Neither layer touches amplitudes or shard
// ranges, so execution stays bit-identical profiled or not.
func (pl *Plan) executeOn(st *State, pool *shardPool, prof *execProfiler) error {
	run := pool.do
	if prof != nil {
		run = func(total int, fn func(w, lo, hi int)) {
			pool.do(total, func(w, lo, hi int) {
				shardStart := time.Now()
				fn(w, lo, hi)
				prof.shard[w] += time.Since(shardStart)
			})
		}
	}
	batchStart := time.Now()
	for i := range pl.kernels {
		k := &pl.kernels[i]
		ord := kindOrdinal(k)
		if prof != nil {
			prof.begin()
		}
		kernelStart := time.Now()
		if err := k.apply(st, pool.shards, run); err != nil {
			return err
		}
		kernelDur := time.Since(kernelStart)
		simKernels.At(ord).Inc()
		simKernelSeconds.At(ord).Observe(kernelDur)
		if prof != nil {
			prof.end(i, k, ord, kernelDur)
		}
	}
	obs.RecordDur(obs.FlightKernelBatch, "",
		fmt.Sprintf("kernels=%d shards=%d n=%d", len(pl.kernels), pool.shards, pl.n),
		time.Since(batchStart))
	return nil
}

// apply sweeps one kernel over st: the only place the engine applies a
// gate. run is a shard pool's do (or executeOn's per-shard timing wrapper
// around it) and shards that pool's width; plan execution calls apply
// kernel after kernel, a noise trajectory calls it with its draws in
// between. Operands were validated when the kernel was compiled, so the
// one runtime failure is an init whose target qubits are not in |0…0⟩.
func (k *kernel) apply(st *State, shards int, run func(total int, fn func(w, lo, hi int))) error {
	re, im := st.re, st.im
	dim := len(re)
	switch k.kind {
	case kGate1Q:
		stride := 1 << k.q
		ms := &k.ms
		run(dim/2, func(_, lo, hi int) {
			sweep1QAuto(re, im, ms, stride, lo, hi)
		})
	case kGate2Q:
		maskLo, maskHi := 1<<k.q, 1<<k.q2
		if k.mono {
			src, phRe, phIm := &k.msrc, &k.mphRe, &k.mphIm
			run(dim/4, func(_, lo, hi int) {
				sweep2QMonoAuto(re, im, src, phRe, phIm, maskLo, maskHi, lo, hi)
			})
			break
		}
		ms := &k.m4s
		run(dim/4, func(_, lo, hi int) {
			sweep2QAuto(re, im, ms, maskLo, maskHi, lo, hi)
		})
	case kCtrlPerm:
		run(1<<k.free, func(_, lo, hi int) {
			sweepCtrlPerm(re, im, k.inserts, k.flip, lo, hi)
		})
	case kCtrlPhase:
		phR, phI := real(k.phase), imag(k.phase)
		run(1<<k.free, func(_, lo, hi int) {
			sweepCtrlPhase(re, im, k.inserts, phR, phI, lo, hi)
		})
	case kDiag:
		run(dim, func(_, lo, hi int) {
			sweepDiag(re, im, k.masks, k.phRe, k.phIm, lo, hi)
		})
	case kPermute:
		src := st.scratchPlanes()
		run(dim, func(_, lo, hi int) {
			copy(src.re[lo:hi], re[lo:hi])
			copy(src.im[lo:hi], im[lo:hi])
		})
		run(dim, func(_, lo, hi int) {
			sweepPermute(re, im, src.re, src.im, k.masks, k.perm, lo, hi)
		})
	case kInit:
		anyMask := k.support
		src := st.scratchPlanes()
		bad := make([]int, shards)
		for i := range bad {
			bad[i] = -1
		}
		run(dim, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i&anyMask != 0 && bad[w] < 0 &&
					cmplx.Abs(complex(re[i], im[i])) > 1e-12 {
					bad[w] = i
				}
			}
			copy(src.re[lo:hi], re[lo:hi])
			copy(src.im[lo:hi], im[lo:hi])
		})
		for _, b := range bad {
			if b >= 0 {
				return fmt.Errorf("sim: init target qubits not in |0…0⟩ (amplitude at %d)", b)
			}
		}
		run(dim, func(_, lo, hi int) {
			sweepInit(re, im, src.re, src.im, k.masks, anyMask, k.ampRe, k.ampIm, lo, hi)
		})
	}
	return nil
}

// ---- sweep bodies, reached only through kernel.apply ----
//
// Every sweep operates on the split re/im planes. The float expressions
// mirror the grouping of Go's complex128 arithmetic exactly — a complex
// product contributes (ar·br − ai·bi) and (ar·bi + ai·br) as parenthesized
// units, sums of products associate left to right — so the split kernels
// produce bit-identical amplitudes to the former []complex128 kernels and
// sampled counts are unchanged across the layout refactor.

// blockedStrideMin is the smallest kernel stride worth the cache-blocked
// sweep form: below it the contiguous runs are too short for the per-run
// setup to pay off.
const blockedStrideMin = 64

// cacheBlockAmps bounds the contiguous run length of a blocked sweep so
// each block's quadrant slices (4 streams for a 1Q kernel, 8 for a 2Q one,
// counting both planes) stay L2-resident while they are being transformed:
// 4096 amplitudes per stream is 32 KiB per plane, at most 256 KiB in
// flight.
const cacheBlockAmps = 1 << 12

// sweep1Q applies a 2×2 unitary to the amplitude pairs indexed by
// [lo, hi) ⊂ [0, 2^(n-1)): pair p expands to indices (i, i|stride) with
// the target bit cleared and set.
func sweep1Q(re, im []float64, m *gates.Split2, stride, lo, hi int) {
	low := stride - 1
	m00r, m01r, m10r, m11r := m.Re[0][0], m.Re[0][1], m.Re[1][0], m.Re[1][1]
	m00i, m01i, m10i, m11i := m.Im[0][0], m.Im[0][1], m.Im[1][0], m.Im[1][1]
	for p := lo; p < hi; p++ {
		i := (p&^low)<<1 | p&low
		j := i | stride
		a0r, a0i := re[i], im[i]
		a1r, a1i := re[j], im[j]
		re[i] = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
		im[i] = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
		re[j] = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
		im[j] = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
	}
}

// sweep1QBlocked is the cache-blocked form for high-stride targets: the
// pair index expands once per block and the four half-streams (two planes
// × two halves) then advance as plain consecutive runs, bounded by
// cacheBlockAmps so all streams stay cache-resident while being
// transformed. Per-pair bit surgery disappears from the inner loop, which
// is straight-line float math over equal-length slices.
func sweep1QBlocked(re, im []float64, m *gates.Split2, stride, lo, hi int) {
	low := stride - 1
	m00r, m01r, m10r, m11r := m.Re[0][0], m.Re[0][1], m.Re[1][0], m.Re[1][1]
	m00i, m01i, m10i, m11i := m.Im[0][0], m.Im[0][1], m.Im[1][0], m.Im[1][1]
	for p := lo; p < hi; {
		i := (p&^low)<<1 | p&low
		run := stride - p&low
		if run > hi-p {
			run = hi - p
		}
		if run > cacheBlockAmps {
			run = cacheBlockAmps
		}
		// The half-streams as equal-length slices: the bounds checks
		// vanish from the inner loop.
		r0 := re[i : i+run]
		i0 := im[i:][:run]
		r1 := re[i|stride:][:run]
		i1 := im[i|stride:][:run]
		for r := range r0 {
			a0r, a0i := r0[r], i0[r]
			a1r, a1i := r1[r], i1[r]
			r0[r] = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
			i0[r] = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
			r1[r] = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
			i1[r] = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
		}
		p += run
	}
}

// sweep1QAuto picks the blocked sweep for high-stride targets.
func sweep1QAuto(re, im []float64, m *gates.Split2, stride, lo, hi int) {
	if stride >= blockedStrideMin {
		sweep1QBlocked(re, im, m, stride, lo, hi)
		return
	}
	sweep1Q(re, im, m, stride, lo, hi)
}

// sweep2Q applies a dense 4×4 unitary to the amplitude quadruples indexed
// by [lo, hi) ⊂ [0, 2^(n-2)): quad c expands to the base index i with both
// pair bits clear; its partners sit at i|maskLo, i|maskHi and i|both.
func sweep2Q(re, im []float64, m *gates.Split4, maskLo, maskHi, lo, hi int) {
	lowLo, lowHi := maskLo-1, maskHi-1
	mr, mi := &m.Re, &m.Im
	for c := lo; c < hi; c++ {
		x := (c&^lowLo)<<1 | c&lowLo
		i := (x&^lowHi)<<1 | x&lowHi
		j := i | maskLo
		k := i | maskHi
		l := j | maskHi
		a0r, a0i := re[i], im[i]
		a1r, a1i := re[j], im[j]
		a2r, a2i := re[k], im[k]
		a3r, a3i := re[l], im[l]
		re[i] = (mr[0][0]*a0r - mi[0][0]*a0i) + (mr[0][1]*a1r - mi[0][1]*a1i) + (mr[0][2]*a2r - mi[0][2]*a2i) + (mr[0][3]*a3r - mi[0][3]*a3i)
		im[i] = (mr[0][0]*a0i + mi[0][0]*a0r) + (mr[0][1]*a1i + mi[0][1]*a1r) + (mr[0][2]*a2i + mi[0][2]*a2r) + (mr[0][3]*a3i + mi[0][3]*a3r)
		re[j] = (mr[1][0]*a0r - mi[1][0]*a0i) + (mr[1][1]*a1r - mi[1][1]*a1i) + (mr[1][2]*a2r - mi[1][2]*a2i) + (mr[1][3]*a3r - mi[1][3]*a3i)
		im[j] = (mr[1][0]*a0i + mi[1][0]*a0r) + (mr[1][1]*a1i + mi[1][1]*a1r) + (mr[1][2]*a2i + mi[1][2]*a2r) + (mr[1][3]*a3i + mi[1][3]*a3r)
		re[k] = (mr[2][0]*a0r - mi[2][0]*a0i) + (mr[2][1]*a1r - mi[2][1]*a1i) + (mr[2][2]*a2r - mi[2][2]*a2i) + (mr[2][3]*a3r - mi[2][3]*a3i)
		im[k] = (mr[2][0]*a0i + mi[2][0]*a0r) + (mr[2][1]*a1i + mi[2][1]*a1r) + (mr[2][2]*a2i + mi[2][2]*a2r) + (mr[2][3]*a3i + mi[2][3]*a3r)
		re[l] = (mr[3][0]*a0r - mi[3][0]*a0i) + (mr[3][1]*a1r - mi[3][1]*a1i) + (mr[3][2]*a2r - mi[3][2]*a2i) + (mr[3][3]*a3r - mi[3][3]*a3i)
		im[l] = (mr[3][0]*a0i + mi[3][0]*a0r) + (mr[3][1]*a1i + mi[3][1]*a1r) + (mr[3][2]*a2i + mi[3][2]*a2r) + (mr[3][3]*a3i + mi[3][3]*a3r)
	}
}

// sweep2QBlocked is the cache-blocked form for pairs whose lower qubit is
// high: the quadruple index expands once per block and the eight quadrant
// streams (four per plane) advance as consecutive runs bounded by
// cacheBlockAmps, keeping all slices cache-resident with no per-quad bit
// surgery.
func sweep2QBlocked(re, im []float64, m *gates.Split4, maskLo, maskHi, lo, hi int) {
	lowLo, lowHi := maskLo-1, maskHi-1
	mr, mi := &m.Re, &m.Im
	for c := lo; c < hi; {
		x := (c&^lowLo)<<1 | c&lowLo
		i := (x&^lowHi)<<1 | x&lowHi
		run := maskLo - c&lowLo
		if run > hi-c {
			run = hi - c
		}
		if run > cacheBlockAmps {
			run = cacheBlockAmps
		}
		// The quadrant streams as equal-length slices: the bounds checks
		// vanish from the inner loop.
		r0 := re[i : i+run]
		i0 := im[i:][:run]
		r1 := re[i|maskLo:][:run]
		i1 := im[i|maskLo:][:run]
		r2 := re[i|maskHi:][:run]
		i2 := im[i|maskHi:][:run]
		r3 := re[i|maskLo|maskHi:][:run]
		i3 := im[i|maskLo|maskHi:][:run]
		for r := range r0 {
			a0r, a0i := r0[r], i0[r]
			a1r, a1i := r1[r], i1[r]
			a2r, a2i := r2[r], i2[r]
			a3r, a3i := r3[r], i3[r]
			r0[r] = (mr[0][0]*a0r - mi[0][0]*a0i) + (mr[0][1]*a1r - mi[0][1]*a1i) + (mr[0][2]*a2r - mi[0][2]*a2i) + (mr[0][3]*a3r - mi[0][3]*a3i)
			i0[r] = (mr[0][0]*a0i + mi[0][0]*a0r) + (mr[0][1]*a1i + mi[0][1]*a1r) + (mr[0][2]*a2i + mi[0][2]*a2r) + (mr[0][3]*a3i + mi[0][3]*a3r)
			r1[r] = (mr[1][0]*a0r - mi[1][0]*a0i) + (mr[1][1]*a1r - mi[1][1]*a1i) + (mr[1][2]*a2r - mi[1][2]*a2i) + (mr[1][3]*a3r - mi[1][3]*a3i)
			i1[r] = (mr[1][0]*a0i + mi[1][0]*a0r) + (mr[1][1]*a1i + mi[1][1]*a1r) + (mr[1][2]*a2i + mi[1][2]*a2r) + (mr[1][3]*a3i + mi[1][3]*a3r)
			r2[r] = (mr[2][0]*a0r - mi[2][0]*a0i) + (mr[2][1]*a1r - mi[2][1]*a1i) + (mr[2][2]*a2r - mi[2][2]*a2i) + (mr[2][3]*a3r - mi[2][3]*a3i)
			i2[r] = (mr[2][0]*a0i + mi[2][0]*a0r) + (mr[2][1]*a1i + mi[2][1]*a1r) + (mr[2][2]*a2i + mi[2][2]*a2r) + (mr[2][3]*a3i + mi[2][3]*a3r)
			r3[r] = (mr[3][0]*a0r - mi[3][0]*a0i) + (mr[3][1]*a1r - mi[3][1]*a1i) + (mr[3][2]*a2r - mi[3][2]*a2i) + (mr[3][3]*a3r - mi[3][3]*a3i)
			i3[r] = (mr[3][0]*a0i + mi[3][0]*a0r) + (mr[3][1]*a1i + mi[3][1]*a1r) + (mr[3][2]*a2i + mi[3][2]*a2r) + (mr[3][3]*a3i + mi[3][3]*a3r)
		}
		c += run
	}
}

// sweep2QAuto picks the blocked sweep when the lower pair qubit's stride
// gives long enough contiguous runs.
func sweep2QAuto(re, im []float64, m *gates.Split4, maskLo, maskHi, lo, hi int) {
	if maskLo >= blockedStrideMin {
		sweep2QBlocked(re, im, m, maskLo, maskHi, lo, hi)
		return
	}
	sweep2Q(re, im, m, maskLo, maskHi, lo, hi)
}

// sweep2QMono applies a monomial (permutation × phase) 4×4 kernel to the
// amplitude quadruples indexed by [lo, hi): each output slot is one
// scaled input slot, 4 complex multiplies per quadruple where the dense
// sweep pays 16 multiplies and 12 adds.
func sweep2QMono(re, im []float64, src *[4]int, phRe, phIm *[4]float64, maskLo, maskHi, lo, hi int) {
	lowLo, lowHi := maskLo-1, maskHi-1
	s0, s1, s2, s3 := src[0], src[1], src[2], src[3]
	p0r, p1r, p2r, p3r := phRe[0], phRe[1], phRe[2], phRe[3]
	p0i, p1i, p2i, p3i := phIm[0], phIm[1], phIm[2], phIm[3]
	if a, b, ok := monoTransposition(src, phRe, phIm); ok {
		// The permutation is one transposition and every fixed row keeps
		// unit phase (the shape CX/CZ chains with folded S/T produce):
		// only two of the four quadrant slots change per quadruple, so
		// half the loads, stores and multiplies drop out. Unit-phase rows
		// were exact out = 1·a − 0·b identities; skipping them changes at
		// most the sign of a zero amplitude.
		off := [4]int{0, maskLo, maskHi, maskLo | maskHi}
		offA, offB := off[a], off[b]
		par, pai := phRe[a], phIm[a]
		pbr, pbi := phRe[b], phIm[b]
		for c := lo; c < hi; c++ {
			x := (c&^lowLo)<<1 | c&lowLo
			i := (x&^lowHi)<<1 | x&lowHi
			ia, ib := i|offA, i|offB
			avr, avi := re[ia], im[ia]
			bvr, bvi := re[ib], im[ib]
			re[ia] = par*bvr - pai*bvi
			im[ia] = par*bvi + pai*bvr
			re[ib] = pbr*avr - pbi*avi
			im[ib] = pbr*avi + pbi*avr
		}
		return
	}
	if p0i == 0 && p1i == 0 && p2i == 0 && p3i == 0 {
		// Real phases (CX/CZ/SWAP/X/Z chains): the planes decouple —
		// out = p·in on each plane separately, half the multiplies. The
		// dropped −pi·in terms were exact zeros, so amplitudes match the
		// general path up to the sign of a zero, which no probability or
		// sampled count can observe.
		for c := lo; c < hi; c++ {
			x := (c&^lowLo)<<1 | c&lowLo
			i := (x&^lowHi)<<1 | x&lowHi
			j := i | maskLo
			k := i | maskHi
			l := j | maskHi
			qr := [4]float64{re[i], re[j], re[k], re[l]}
			qi := [4]float64{im[i], im[j], im[k], im[l]}
			re[i], im[i] = p0r*qr[s0], p0r*qi[s0]
			re[j], im[j] = p1r*qr[s1], p1r*qi[s1]
			re[k], im[k] = p2r*qr[s2], p2r*qi[s2]
			re[l], im[l] = p3r*qr[s3], p3r*qi[s3]
		}
		return
	}
	for c := lo; c < hi; c++ {
		x := (c&^lowLo)<<1 | c&lowLo
		i := (x&^lowHi)<<1 | x&lowHi
		j := i | maskLo
		k := i | maskHi
		l := j | maskHi
		qr := [4]float64{re[i], re[j], re[k], re[l]}
		qi := [4]float64{im[i], im[j], im[k], im[l]}
		re[i] = p0r*qr[s0] - p0i*qi[s0]
		im[i] = p0r*qi[s0] + p0i*qr[s0]
		re[j] = p1r*qr[s1] - p1i*qi[s1]
		im[j] = p1r*qi[s1] + p1i*qr[s1]
		re[k] = p2r*qr[s2] - p2i*qi[s2]
		im[k] = p2r*qi[s2] + p2i*qr[s2]
		re[l] = p3r*qr[s3] - p3i*qi[s3]
		im[l] = p3r*qi[s3] + p3i*qr[s3]
	}
}

// monoTransposition reports whether the monomial's permutation is exactly
// one transposition (a b) with every fixed row keeping unit phase — the
// dominant kernel shape compiled from CX/CZ chains, with or without folded
// S/T phases on the moved rows.
func monoTransposition(src *[4]int, phRe, phIm *[4]float64) (a, b int, ok bool) {
	a = -1
	for r := 0; r < 4; r++ {
		if src[r] == r {
			if phRe[r] != 1 || phIm[r] != 0 {
				return 0, 0, false
			}
			continue
		}
		if a < 0 {
			a = r
			continue
		}
		if b != 0 {
			return 0, 0, false // third moved row
		}
		b = r
	}
	if a < 0 || b == 0 {
		return 0, 0, false
	}
	if src[a] != b || src[b] != a {
		return 0, 0, false
	}
	return a, b, true
}

// monoComplexPlanes is the cycle-walking blocked monomial for complex
// phases, operating on both planes' quadrant runs together: unit-phase
// fixed rows skip their streams entirely, fixed rows with phase scale in
// place, and each k-cycle loops over only the 2k streams it moves —
// instead of one 16-stream loop whose slice bases spill out of the
// register file.
func monoComplexPlanes(qr, qi *[4][]float64, src *[4]int, phRe, phIm *[4]float64) {
	var done [4]bool
	for r0 := 0; r0 < 4; r0++ {
		if done[r0] {
			continue
		}
		done[r0] = true
		if src[r0] == r0 {
			pr, pi := phRe[r0], phIm[r0]
			if pr == 1 && pi == 0 {
				continue
			}
			sr := qr[r0]
			si := qi[r0][:len(sr)]
			for n := range sr {
				ar, ai := sr[n], si[n]
				sr[n] = ar*pr - ai*pi
				si[n] = ar*pi + ai*pr
			}
			continue
		}
		r1 := src[r0]
		if src[r1] == r0 {
			done[r1] = true
			p0r, p0i := phRe[r0], phIm[r0]
			p1r, p1i := phRe[r1], phIm[r1]
			ar0 := qr[r0]
			ai0 := qi[r0][:len(ar0)]
			ar1 := qr[r1][:len(ar0)]
			ai1 := qi[r1][:len(ar0)]
			for n := range ar0 {
				v0r, v0i := ar0[n], ai0[n]
				v1r, v1i := ar1[n], ai1[n]
				ar0[n] = p0r*v1r - p0i*v1i
				ai0[n] = p0r*v1i + p0i*v1r
				ar1[n] = p1r*v0r - p1i*v0i
				ai1[n] = p1r*v0i + p1i*v0r
			}
			continue
		}
		// 3- or 4-cycle: collect it and rotate with per-element buffering.
		cyc := [4]int{r0, r1, src[r1], -1}
		n := 3
		if src[cyc[2]] != r0 {
			cyc[3] = src[cyc[2]]
			n = 4
		}
		for _, r := range cyc[1:n] {
			done[r] = true
		}
		if n == 3 {
			p0r, p0i := phRe[cyc[0]], phIm[cyc[0]]
			p1r, p1i := phRe[cyc[1]], phIm[cyc[1]]
			p2r, p2i := phRe[cyc[2]], phIm[cyc[2]]
			s0r := qr[cyc[0]]
			s0i := qi[cyc[0]][:len(s0r)]
			s1r := qr[cyc[1]][:len(s0r)]
			s1i := qi[cyc[1]][:len(s0r)]
			s2r := qr[cyc[2]][:len(s0r)]
			s2i := qi[cyc[2]][:len(s0r)]
			for k := range s0r {
				v0r, v0i := s0r[k], s0i[k]
				v1r, v1i := s1r[k], s1i[k]
				v2r, v2i := s2r[k], s2i[k]
				s0r[k] = p0r*v1r - p0i*v1i
				s0i[k] = p0r*v1i + p0i*v1r
				s1r[k] = p1r*v2r - p1i*v2i
				s1i[k] = p1r*v2i + p1i*v2r
				s2r[k] = p2r*v0r - p2i*v0i
				s2i[k] = p2r*v0i + p2i*v0r
			}
			continue
		}
		p0r, p0i := phRe[cyc[0]], phIm[cyc[0]]
		p1r, p1i := phRe[cyc[1]], phIm[cyc[1]]
		p2r, p2i := phRe[cyc[2]], phIm[cyc[2]]
		p3r, p3i := phRe[cyc[3]], phIm[cyc[3]]
		s0r := qr[cyc[0]]
		s0i := qi[cyc[0]][:len(s0r)]
		s1r := qr[cyc[1]][:len(s0r)]
		s1i := qi[cyc[1]][:len(s0r)]
		s2r := qr[cyc[2]][:len(s0r)]
		s2i := qi[cyc[2]][:len(s0r)]
		s3r := qr[cyc[3]][:len(s0r)]
		s3i := qi[cyc[3]][:len(s0r)]
		for k := range s0r {
			v0r, v0i := s0r[k], s0i[k]
			v1r, v1i := s1r[k], s1i[k]
			v2r, v2i := s2r[k], s2i[k]
			v3r, v3i := s3r[k], s3i[k]
			s0r[k] = p0r*v1r - p0i*v1i
			s0i[k] = p0r*v1i + p0i*v1r
			s1r[k] = p1r*v2r - p1i*v2i
			s1i[k] = p1r*v2i + p1i*v2r
			s2r[k] = p2r*v3r - p2i*v3i
			s2i[k] = p2r*v3i + p2i*v3r
			s3r[k] = p3r*v0r - p3i*v0i
			s3i[k] = p3r*v0i + p3i*v0r
		}
	}
}

// monoRealPlane applies out[r] = ph[r]·in[src[r]] over one plane's four
// equal-length quadrant runs for a real-phase monomial, walking the
// permutation's cycles: identity rows with unit phase skip their loads and
// stores entirely (a CX kernel moves only two of the four quadrants, so
// half the block's traffic vanishes), fixed points with phase scale in
// place, and 2/3/4-cycles run as tight swap-scale loops over just the
// streams they touch.
func monoRealPlane(q *[4][]float64, src *[4]int, ph *[4]float64) {
	var done [4]bool
	for r0 := 0; r0 < 4; r0++ {
		if done[r0] {
			continue
		}
		done[r0] = true
		if src[r0] == r0 {
			if p := ph[r0]; p != 1 {
				s := q[r0]
				for i := range s {
					s[i] = p * s[i]
				}
			}
			continue
		}
		r1 := src[r0]
		if src[r1] == r0 {
			done[r1] = true
			p0, p1 := ph[r0], ph[r1]
			a := q[r0]
			b := q[r1][:len(a)]
			for i := range a {
				va, vb := a[i], b[i]
				a[i] = p0 * vb
				b[i] = p1 * va
			}
			continue
		}
		r2 := src[r1]
		if src[r2] == r0 {
			done[r1], done[r2] = true, true
			p0, p1, p2 := ph[r0], ph[r1], ph[r2]
			s0 := q[r0]
			s1 := q[r1][:len(s0)]
			s2 := q[r2][:len(s0)]
			for i := range s0 {
				v0, v1, v2 := s0[i], s1[i], s2[i]
				s0[i] = p0 * v1
				s1[i] = p1 * v2
				s2[i] = p2 * v0
			}
			continue
		}
		r3 := src[r2]
		done[r1], done[r2], done[r3] = true, true, true
		p0, p1, p2, p3 := ph[r0], ph[r1], ph[r2], ph[r3]
		s0 := q[r0]
		s1 := q[r1][:len(s0)]
		s2 := q[r2][:len(s0)]
		s3 := q[r3][:len(s0)]
		for i := range s0 {
			v0, v1, v2, v3 := s0[i], s1[i], s2[i], s3[i]
			s0[i] = p0 * v1
			s1[i] = p1 * v2
			s2[i] = p2 * v3
			s3[i] = p3 * v0
		}
	}
}

// sweep2QMonoBlocked is the cache-blocked monomial form for pairs whose
// lower qubit stride gives long contiguous quadrant runs (mirrors
// sweep2QBlocked's block expansion).
func sweep2QMonoBlocked(re, im []float64, src *[4]int, phRe, phIm *[4]float64, maskLo, maskHi, lo, hi int) {
	lowLo, lowHi := maskLo-1, maskHi-1
	allReal := phIm[0] == 0 && phIm[1] == 0 && phIm[2] == 0 && phIm[3] == 0
	for c := lo; c < hi; {
		x := (c&^lowLo)<<1 | c&lowLo
		i := (x&^lowHi)<<1 | x&lowHi
		run := maskLo - c&lowLo
		if run > hi-c {
			run = hi - c
		}
		if run > cacheBlockAmps {
			run = cacheBlockAmps
		}
		qr := [4][]float64{
			re[i : i+run],
			re[i|maskLo:][:run],
			re[i|maskHi:][:run],
			re[i|maskLo|maskHi:][:run],
		}
		qi := [4][]float64{
			im[i : i+run],
			im[i|maskLo:][:run],
			im[i|maskHi:][:run],
			im[i|maskLo|maskHi:][:run],
		}
		if allReal {
			// Real phases decouple the planes (see sweep2QMono): each
			// plane is an in-place permute-and-scale of its quadrant runs,
			// cycle by cycle, touching only the quadrants the permutation
			// moves — four live streams per loop instead of sixteen.
			monoRealPlane(&qr, src, phRe)
			monoRealPlane(&qi, src, phRe)
		} else {
			monoComplexPlanes(&qr, &qi, src, phRe, phIm)
		}
		c += run
	}
}

// sweep2QMonoAuto picks the blocked monomial sweep when the lower pair
// qubit's stride gives long enough contiguous runs.
func sweep2QMonoAuto(re, im []float64, src *[4]int, phRe, phIm *[4]float64, maskLo, maskHi, lo, hi int) {
	if maskLo >= blockedStrideMin {
		sweep2QMonoBlocked(re, im, src, phRe, phIm, maskLo, maskHi, lo, hi)
		return
	}
	sweep2QMono(re, im, src, phRe, phIm, maskLo, maskHi, lo, hi)
}

// sweepCtrlPerm exchanges amplitude pairs (i, i^flip) over the compact
// subspace [lo, hi) ⊂ [0, 2^free).
func sweepCtrlPerm(re, im []float64, inserts []bitInsert, flip, lo, hi int) {
	for c := lo; c < hi; c++ {
		i := expandIndex(c, inserts)
		j := i ^ flip
		re[i], re[j] = re[j], re[i]
		im[i], im[j] = im[j], im[i]
	}
}

// sweepCtrlPhase multiplies the phase (phR + i·phI) onto the all-ones
// subspace.
func sweepCtrlPhase(re, im []float64, inserts []bitInsert, phR, phI float64, lo, hi int) {
	for c := lo; c < hi; c++ {
		i := expandIndex(c, inserts)
		ar, ai := re[i], im[i]
		re[i] = ar*phR - ai*phI
		im[i] = ar*phI + ai*phR
	}
}

// diagGather is the byte-indexed gather used by sweepDiag: table[b][v]
// holds the local-index bits contributed when byte b of the amplitude
// index has value v, so local(i) ORs one lookup per index byte instead of
// running a branchy per-mask loop per amplitude. The tables cost a few KiB
// to build per sweep call — noise against the 2^n loop they serve.
type diagGather struct {
	tbl [4][256]uint32 // MaxQubits = 26 ⇒ index bytes 0..3
}

func makeDiagGather(masks []int) *diagGather {
	g := &diagGather{}
	for k, mq := range masks {
		pos := bits.TrailingZeros(uint(mq))
		byteIdx, bit := pos>>3, pos&7
		for v := 0; v < 256; v++ {
			if v>>bit&1 == 1 {
				g.tbl[byteIdx][v] |= 1 << k
			}
		}
	}
	return g
}

// sweepDiag multiplies each amplitude by the table phase selected by its
// gathered local index; the table is pre-split into real/imag planes. The
// gather hoists: within a 256-aligned run only the low index byte varies,
// so the high bytes' contribution is computed once per run and the inner
// loop pays a single byte-table load per amplitude.
func sweepDiag(re, im []float64, masks []int, phRe, phIm []float64, lo, hi int) {
	g := makeDiagGather(masks)
	t0 := &g.tbl[0]
	for i := lo; i < hi; {
		base := i & 255
		run := 256 - base
		if run > hi-i {
			run = hi - i
		}
		hiPart := g.tbl[1][i>>8&255] | g.tbl[2][i>>16&255] | g.tbl[3][i>>24&255]
		rr := re[i : i+run]
		ii := im[i:][:run]
		for r := range rr {
			loc := hiPart | t0[base+r]
			pr, pi := phRe[loc], phIm[loc]
			ar, ai := rr[r], ii[r]
			rr[r] = ar*pr - ai*pi
			ii[r] = ar*pi + ai*pr
		}
		i += run
	}
}

// sweepPermute scatters dst[π(i)] = src[i] for source indices in [lo, hi).
// The permutation is a bijection, so every destination is written exactly
// once across all shards even though writes land outside [lo, hi).
func sweepPermute(dstRe, dstIm, srcRe, srcIm []float64, masks []int, perm []uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		local := 0
		for k, mq := range masks {
			if i&mq != 0 {
				local |= 1 << k
			}
		}
		to := int(perm[local])
		j := i
		for k, mq := range masks {
			if to&(1<<k) != 0 {
				j |= mq
			} else {
				j &^= mq
			}
		}
		dstRe[j] = srcRe[i]
		dstIm[j] = srcIm[i]
	}
}

// sweepInit writes dst[i] = src[i &^ anyMask] · amps[local(i)] for
// destination indices in [lo, hi); reads from src may cross shard
// boundaries, writes stay inside.
func sweepInit(dstRe, dstIm, srcRe, srcIm []float64, masks []int, anyMask int, ampRe, ampIm []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		local := 0
		for k, mq := range masks {
			if i&mq != 0 {
				local |= 1 << k
			}
		}
		s := i &^ anyMask
		sr, si := srcRe[s], srcIm[s]
		ar, ai := ampRe[local], ampIm[local]
		dstRe[i] = sr*ar - si*ai
		dstIm[i] = sr*ai + si*ar
	}
}
