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
// circuit needs far fewer full-state sweeps than one per gate. The sweeps
// are bound by their arithmetic more than by memory bandwidth (see the
// package doc), so finalize also gives each dense 4×4 the cheapest sweep
// its exact zeros allow.
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

// pairForm is the sweep a kGate2Q kernel runs. Every form computes the
// dense 4×4 product with some exact-zero terms left out, so all forms agree
// with the dense sweep under == (only a zero's sign can differ).
type pairForm uint8

const (
	// pairDense pays 16 complex multiply-adds per quadruple.
	pairDense pairForm = iota
	// pairDiag is diagonal: each slot scales by its own phase, 4 complex
	// multiplies per quadruple.
	pairDiag
	// pairBlockLo is block-diagonal over the higher qubit: a 2×2 gate on
	// the lower qubit, chosen by the higher qubit's bit. The sweep reads
	// m4s's two diagonal 2×2 blocks only: 8 complex multiply-adds per
	// quadruple.
	pairBlockLo
	// pairBlockHi is block-diagonal over the lower qubit: a 2×2 gate on
	// the higher qubit, chosen by the lower qubit's bit. m4s holds the
	// matrix with rows and columns permuted by [0,2,1,3], which makes it
	// pairBlockLo-shaped, and the sweep swaps the partner offsets, so one
	// arithmetic body serves both block forms.
	pairBlockHi
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
	// form is the sweep a kGate2Q kernel runs, decided by finalize2Q
	// from m4's exact zeros. The diagonal form reads dRe/dIm
	// (out[r] = d[r]·in[r]); the dense and block forms read m4s.
	form pairForm
	dRe  [4]float64
	dIm  [4]float64

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
	// Monomial2Q counts dense 4×4 kernels that finalized diagonal — a CX
	// chain around phase gates, such as the QAOA ZZ phase CX·RZ·CX — and
	// execute on the 4-multiply diagonal sweep instead of the full dense
	// sweep. A permutation kernel (CX or SWAP chains) finalizes as block
	// or dense instead.
	Monomial2Q int
	// Block2Q counts dense 4×4 kernels that finalized block-diagonal — a
	// one-qubit gate on one qubit of the pair chosen by the other's bit,
	// such as a ZZ phase fused with an RX — and execute on the block
	// sweep at half the dense sweep's arithmetic.
	Block2Q int
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
	// zero patterns are now stable. Split every kernel matrix into
	// real/imag planes once, and pick each dense 4×4's sweep.
	for i := range pl.kernels {
		k := &pl.kernels[i]
		switch k.kind {
		case kGate1Q:
			k.ms = k.m.Split()
		case kGate2Q:
			k.finalize2Q(&pl.stats)
		}
	}
	pl.stats.Kernels = len(pl.kernels)
	return pl, nil
}

// finalize2Q picks the sweep a kGate2Q kernel runs from the exact zeros of
// its final matrix m4 — diagonal, then block-diagonal, else dense — and
// fills the planes that sweep reads. compile's finalize and ParamPlan.Bind
// both call it, so a bound kernel takes the form a concrete compile of its
// point would; st's Monomial2Q and Block2Q follow the kernel's old and
// new form.
func (k *kernel) finalize2Q(st *PlanStats) {
	switch k.form {
	case pairDiag:
		st.Monomial2Q--
	case pairBlockLo, pairBlockHi:
		st.Block2Q--
	}
	if isDiag4(k.m4) {
		k.form = pairDiag
		for r := 0; r < 4; r++ {
			k.dRe[r], k.dIm[r] = real(k.m4[r][r]), imag(k.m4[r][r])
		}
		st.Monomial2Q++
		return
	}
	k.form = pairDense
	m := k.m4
	if blockLo(m) {
		k.form = pairBlockLo
	} else if sw := swapPair(m); blockLo(sw) {
		k.form, m = pairBlockHi, sw
	}
	if k.form != pairDense {
		st.Block2Q++
	}
	k.m4s = m.Split()
}

// blockLo reports whether m is block-diagonal over its higher qubit:
// every entry that would flip that qubit is exactly zero, so m acts as a
// 2×2 on the lower qubit chosen by the higher one's bit. The zero test is
// exact, as in isDiag4.
func blockLo(m gates.Matrix4) bool {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if r>>1 != c>>1 && m[r][c] != 0 {
				return false
			}
		}
	}
	return true
}

// swapPair returns m with the roles of its two qubits exchanged: rows and
// columns permuted by [0,2,1,3]. Within a row the surviving entries keep
// their relative column order, so a block sweep over the permuted matrix
// sums each row's terms in the dense sweep's order.
func swapPair(m gates.Matrix4) gates.Matrix4 {
	p := [4]int{0, 2, 1, 3}
	var out gates.Matrix4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			out[r][c] = m[p[r]][p[c]]
		}
	}
	return out
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
// tolerance-sensitive; a false negative only costs a fusion hop or the
// diagonal sweep).
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
	_, err := pl.execute(st, shards, false)
	return err
}

// execute is the body of Execute and ExecuteProfiled: one shard pool for
// one pass over the kernels.
func (pl *Plan) execute(st *State, shards int, profile bool) (*Profile, error) {
	if st.n != pl.n {
		return nil, fmt.Errorf("sim: plan compiled for %d qubits, state has %d", pl.n, st.n)
	}
	pool := newShardPool(resolveShards(st.Dim(), shards))
	defer pool.close()
	return pl.executeOn(st, pool, profile)
}

// executeOn runs the kernel sequence on an existing pool; Run reuses the
// same pool afterwards for the CDF build. Every kernel feeds the
// always-on per-kind instruments; with profile, each sweep closure is
// additionally wrapped to accumulate per-shard times for the opt-in
// kernel table, which it returns (nil without profile). Neither layer
// touches amplitudes or shard ranges, so execution stays bit-identical
// profiled or not.
//
// A kernel's wall time runs from the previous kernel's end (the first
// kernel's from the batch start) to its own: the windows tile the kernel
// loop, so the per-kernel bookkeeping between sweeps, and whatever delays
// the goroutine there, counts toward the next kernel instead of falling
// outside every window.
func (pl *Plan) executeOn(st *State, pool *shardPool, profile bool) (*Profile, error) {
	batchStart := time.Now()
	run := pool.do
	var prof *execProfiler
	if profile {
		prof = newExecProfiler(pool.shards, len(pl.kernels))
		run = func(total int, fn func(w, lo, hi int)) {
			pool.do(total, func(w, lo, hi int) {
				shardStart := time.Now()
				fn(w, lo, hi)
				prof.shard[w] += time.Since(shardStart)
			})
		}
	}
	last := batchStart
	for i := range pl.kernels {
		k := &pl.kernels[i]
		ord := kindOrdinal(k)
		if prof != nil {
			prof.begin()
		}
		if err := k.apply(st, pool.shards, run); err != nil {
			return nil, err
		}
		end := time.Now()
		kernelDur := end.Sub(last)
		last = end
		simKernels.At(ord).Inc()
		simKernelSeconds.At(ord).Observe(kernelDur)
		if prof != nil {
			prof.end(i, k, ord, kernelDur)
		}
	}
	obs.RecordDur(obs.FlightKernelBatch, "",
		fmt.Sprintf("kernels=%d shards=%d n=%d", len(pl.kernels), pool.shards, pl.n),
		time.Since(batchStart))
	if prof == nil {
		return nil, nil
	}
	return prof.finish(), nil
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
		switch k.form {
		case pairDiag:
			dRe, dIm := &k.dRe, &k.dIm
			run(dim/4, func(_, lo, hi int) {
				sweep2QDiagAuto(re, im, dRe, dIm, maskLo, maskHi, lo, hi)
			})
		case pairBlockLo, pairBlockHi:
			offA, offB := maskLo, maskHi
			if k.form == pairBlockHi {
				offA, offB = maskHi, maskLo
			}
			ms := &k.m4s
			run(dim/4, func(_, lo, hi int) {
				sweep2QBlockAuto(re, im, ms, maskLo, maskHi, offA, offB, lo, hi)
			})
		default:
			ms := &k.m4s
			run(dim/4, func(_, lo, hi int) {
				sweep2QAuto(re, im, ms, maskLo, maskHi, lo, hi)
			})
		}
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
//
// Each of the 2×2, block, dense 4×4 and diagonal forms has one Go loop,
// which walks its index range one pair or quadruple at a time, and one AVX
// body (vecsweep.go); its *Auto function runs the body with useAVX and
// the loop otherwise. The loop is what the body is held to bit for bit,
// and it sweeps the few indices at a shard's ends the body leaves.

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

// sweep1QAuto is sweep1QVec with useAVX, else sweep1Q.
func sweep1QAuto(re, im []float64, m *gates.Split2, stride, lo, hi int) {
	if useAVX {
		sweep1QVec(re, im, m, stride, lo, hi)
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

// sweep2QAuto is sweep2QVec with useAVX, else sweep2Q.
func sweep2QAuto(re, im []float64, m *gates.Split4, maskLo, maskHi, lo, hi int) {
	if useAVX {
		sweep2QVec(re, im, m, maskLo, maskHi, lo, hi)
		return
	}
	sweep2Q(re, im, m, maskLo, maskHi, lo, hi)
}

// blockPair is the arithmetic body of both block sweeps: a 2×2 block
// applied to one amplitude pair, each output the dense row's two surviving
// terms in column order. It takes the block as scalars (blockEntries) so
// that it inlines into the sweep loops.
func blockPair(m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i, a0r, a0i, a1r, a1i float64) (b0r, b0i, b1r, b1i float64) {
	b0r = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
	b0i = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
	b1r = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
	b1i = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
	return
}

// blockMat is the diagonal 2×2 block of m at rows and columns b, b+1 in
// blockPair's argument order, the matrix sweep2QBlockVec lays out.
func blockMat(m *gates.Split4, b int) [8]float64 {
	return [8]float64{m.Re[b][b], m.Im[b][b], m.Re[b][b+1], m.Im[b][b+1], m.Re[b+1][b], m.Im[b+1][b], m.Re[b+1][b+1], m.Im[b+1][b+1]}
}

// blockEntries is blockMat as scalars, for the per-quadruple loop.
func blockEntries(m *gates.Split4, b int) (m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i float64) {
	e := blockMat(m, b)
	return e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7]
}

// sweep2QBlock applies a block-diagonal kernel to the amplitude quadruples
// indexed by [lo, hi), expanded as in sweep2Q: m's upper-left block maps
// the pair (i, i|offA), its lower-right block the pair (i|offB,
// i|offA|offB). offA is the gate qubit's mask and offB the selecting
// qubit's.
func sweep2QBlock(re, im []float64, m *gates.Split4, maskLo, maskHi, offA, offB, lo, hi int) {
	lowLo, lowHi := maskLo-1, maskHi-1
	p00r, p00i, p01r, p01i, p10r, p10i, p11r, p11i := blockEntries(m, 0)
	q00r, q00i, q01r, q01i, q10r, q10i, q11r, q11i := blockEntries(m, 2)
	for c := lo; c < hi; c++ {
		x := (c&^lowLo)<<1 | c&lowLo
		i := (x&^lowHi)<<1 | x&lowHi
		j := i | offA
		k := i | offB
		l := j | offB
		re[i], im[i], re[j], im[j] = blockPair(p00r, p00i, p01r, p01i, p10r, p10i, p11r, p11i, re[i], im[i], re[j], im[j])
		re[k], im[k], re[l], im[l] = blockPair(q00r, q00i, q01r, q01i, q10r, q10i, q11r, q11i, re[k], im[k], re[l], im[l])
	}
}

// sweep2QBlockAuto is sweep2QBlockVec with useAVX, else sweep2QBlock.
func sweep2QBlockAuto(re, im []float64, m *gates.Split4, maskLo, maskHi, offA, offB, lo, hi int) {
	if useAVX {
		sweep2QBlockVec(re, im, m, maskLo, maskHi, offA, offB, lo, hi)
		return
	}
	sweep2QBlock(re, im, m, maskLo, maskHi, offA, offB, lo, hi)
}

// sweep2QDiag applies a diagonal 4×4 kernel, the phases dRe + i·dIm, to
// the amplitude quadruples indexed by [lo, hi), expanded as in sweep2Q:
// every slot scales in place, unit phases included, 4 complex multiplies
// per quadruple where the dense sweep pays 16 multiplies and 12 adds.
func sweep2QDiag(re, im []float64, dRe, dIm *[4]float64, maskLo, maskHi, lo, hi int) {
	lowLo, lowHi := maskLo-1, maskHi-1
	p0r, p1r, p2r, p3r := dRe[0], dRe[1], dRe[2], dRe[3]
	p0i, p1i, p2i, p3i := dIm[0], dIm[1], dIm[2], dIm[3]
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
		re[i] = p0r*a0r - p0i*a0i
		im[i] = p0r*a0i + p0i*a0r
		re[j] = p1r*a1r - p1i*a1i
		im[j] = p1r*a1i + p1i*a1r
		re[k] = p2r*a2r - p2i*a2i
		im[k] = p2r*a2i + p2i*a2r
		re[l] = p3r*a3r - p3i*a3i
		im[l] = p3r*a3i + p3i*a3r
	}
}

// sweep2QDiagAuto is sweep2QDiagVec with useAVX, else sweep2QDiag.
func sweep2QDiagAuto(re, im []float64, dRe, dIm *[4]float64, maskLo, maskHi, lo, hi int) {
	if useAVX {
		sweep2QDiagVec(re, im, dRe, dIm, maskLo, maskHi, lo, hi)
		return
	}
	sweep2QDiag(re, im, dRe, dIm, maskLo, maskHi, lo, hi)
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
