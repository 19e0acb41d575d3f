package algolib

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/qop"
)

// Lowered is the gate-path realization of a descriptor sequence.
type Lowered struct {
	Circuit *circuit.Circuit
	// Offsets maps register ids to their base qubit index.
	Offsets map[string]int
}

// Lower realizes an operator descriptor sequence as a circuit — the
// library's realization hook for gate targets (paper §4.4: "realization
// hooks … lower a quantum operator descriptor to a target-specific
// form"). Registers are packed in first-use order; the final MEASUREMENT
// (if any) defines the classical register via its result schema.
func Lower(ops qop.Sequence, regs Registers) (*Lowered, error) {
	return lowerSeq(ops, regs, nil)
}

func lowerSeq(ops qop.Sequence, regs Registers, env *paramEnv) (*Lowered, error) {
	if err := Validate(ops, regs); err != nil {
		return nil, err
	}
	// Register placement in first-use order.
	offsets := map[string]int{}
	next := 0
	place := func(id string) error {
		if _, done := offsets[id]; done {
			return nil
		}
		d, ok := regs[id]
		if !ok {
			return fmt.Errorf("algolib: register %q not in table", id)
		}
		offsets[id] = next
		next += d.Width
		return nil
	}
	for _, op := range ops {
		ids := []string{op.DomainQDT, op.CodomainQDT}
		for _, key := range []string{"eigen_qdt", "target_qdt", "flag_qdt", "a_qdt", "b_qdt"} {
			if v, ok := op.Params[key].(string); ok {
				ids = append(ids, v)
			}
		}
		for _, id := range ids {
			if id == "" {
				continue
			}
			if err := place(id); err != nil {
				return nil, err
			}
		}
	}
	numClbits := 0
	if m := ops.FinalMeasurement(); m != nil && m.Result != nil {
		numClbits = len(m.Result.ClbitOrder)
	}
	c := circuit.New(next, numClbits)
	for idx, op := range ops {
		if err := lowerOp(c, op, regs, offsets, env); err != nil {
			return nil, fmt.Errorf("algolib: lowering op %d (%s): %w", idx, op.Name, err)
		}
	}
	return &Lowered{Circuit: c, Offsets: offsets}, nil
}

func lowerOp(c *circuit.Circuit, op *qop.Operator, regs Registers, offsets map[string]int, env *paramEnv) error {
	base := offsets[op.DomainQDT]
	width := regs[op.DomainQDT].Width
	switch op.RepKind {
	case qop.PrepUniform:
		for q := 0; q < width; q++ {
			c.H(base + q)
		}
	case qop.PrepBasis:
		v, err := op.ParamFloat("value")
		if err != nil {
			return err
		}
		value := uint64(v)
		for q := 0; q < width; q++ {
			if value>>uint(q)&1 == 1 {
				c.X(base + q)
			}
		}
	case qop.AngleEncoding:
		if done, err := env.lowerAngleEncoding(c, op, base, width); done || err != nil {
			return err
		}
		angles, err := floatSliceParam(op, "angles")
		if err != nil {
			return err
		}
		if len(angles) != width {
			return fmt.Errorf("%d angles for width %d", len(angles), width)
		}
		for q, a := range angles {
			c.RY(a, base+q)
		}
	case qop.AmplitudeEnc:
		re, err := floatSliceParam(op, "re")
		if err != nil {
			return err
		}
		im, err := floatSliceParam(op, "im")
		if err != nil {
			return err
		}
		if len(re) != len(im) || len(re) != 1<<uint(width) {
			return fmt.Errorf("amplitude arrays sized %d/%d for width %d", len(re), len(im), width)
		}
		amps := make([]complex128, len(re))
		for i := range re {
			amps[i] = complex(re[i], im[i])
		}
		qubits := regQubits(base, width)
		return c.Init(qubits, amps)
	case qop.QFTTemplate:
		approx, err := op.ParamInt("approx_degree")
		if err != nil {
			return err
		}
		doSwaps, err := op.ParamBoolDefault("do_swaps", true)
		if err != nil {
			return err
		}
		inverse, err := op.ParamBoolDefault("inverse", false)
		if err != nil {
			return err
		}
		sub, err := QFTCircuit(width, approx, doSwaps, inverse)
		if err != nil {
			return err
		}
		return composeAt(c, sub, base)
	case qop.QPETemplate:
		return lowerQPE(c, op, regs, offsets)
	case qop.PhaseKickback:
		ctrl, err := op.ParamInt("control")
		if err != nil {
			return err
		}
		tgt, err := op.ParamInt("target")
		if err != nil {
			return err
		}
		angle, err := op.ParamFloat("angle")
		if err != nil {
			return err
		}
		c.CPhase(angle, base+ctrl, base+tgt)
	case qop.IsingCostPhase:
		g, err := GraphFromCostPhase(op, width)
		if err != nil {
			return err
		}
		if idx, sym, err := env.refIndex(op, "gamma"); err != nil {
			return err
		} else if sym {
			// Symbolic γ: same CX·RZ·CX structure, with the per-edge
			// constant 2w folded into the reference scale so a bind
			// computes (2w)·γ — bit-identical to the concrete
			// (2γ)·w (doubling is exact, one rounding each way).
			for _, e := range g.Edges {
				u, v := base+e.U, base+e.V
				c.CX(u, v)
				if err := c.GateRefs(gates.RZ, []int{v}, []float64{0}, []circuit.ParamRef{{Index: idx, Scale: 2 * e.Weight}}); err != nil {
					return err
				}
				c.CX(u, v)
			}
			return nil
		}
		gamma, err := op.ParamFloat("gamma")
		if err != nil {
			return err
		}
		for _, e := range g.Edges {
			u, v := base+e.U, base+e.V
			c.CX(u, v)
			c.RZ(2*gamma*e.Weight, v)
			c.CX(u, v)
		}
	case qop.MixerRX:
		if idx, sym, err := env.refIndex(op, "beta"); err != nil {
			return err
		} else if sym {
			for q := 0; q < width; q++ {
				if err := c.GateRefs(gates.RX, []int{base + q}, []float64{0}, []circuit.ParamRef{{Index: idx, Scale: 2}}); err != nil {
					return err
				}
			}
			return nil
		}
		beta, err := op.ParamFloat("beta")
		if err != nil {
			return err
		}
		for q := 0; q < width; q++ {
			c.RX(2*beta, base+q)
		}
	case qop.IsingEvolution:
		t, err := op.ParamFloat("time")
		if err != nil {
			return err
		}
		m, err := IsingModelFromOp(cloneAsIsingProblem(op), width)
		if err != nil {
			return err
		}
		transverse, err := op.ParamFloatDefault("transverse", 0)
		if err != nil {
			return err
		}
		stepsF, err := op.ParamFloatDefault("trotter_steps", 1)
		if err != nil {
			return err
		}
		steps := int(stepsF)
		if steps < 1 {
			return fmt.Errorf("trotter_steps %d < 1", steps)
		}
		if transverse == 0 {
			steps = 1 // diagonal evolution is exact in one step
		}
		dt := t / float64(steps)
		for s := 0; s < steps; s++ {
			for cp := range m.Couplings() {
				u, v := base+cp.I, base+cp.J
				c.CX(u, v)
				c.RZ(2*dt*cp.V, v)
				c.CX(u, v)
			}
			for i, h := range m.H {
				if h != 0 {
					c.RZ(2*dt*h, base+i)
				}
			}
			if transverse != 0 {
				for q := 0; q < width; q++ {
					c.RX(2*dt*transverse, base+q)
				}
			}
		}
	case qop.AdderTemplate:
		v, err := op.ParamFloat("constant")
		if err != nil {
			return err
		}
		return lowerDraperAdd(c, base, width, uint64(v))
	case qop.ModAddTemplate:
		return lowerModPermutation(c, op, base, width, func(x, a, m uint64) uint64 { return (x + a) % m })
	case qop.ModMulTemplate:
		return lowerModPermutation(c, op, base, width, func(x, a, m uint64) uint64 { return x * a % m })
	case qop.ModExpTemplate:
		return lowerModExp(c, op, regs, offsets)
	case qop.CompareTemplate:
		return lowerCompare(c, op, regs, offsets)
	case qop.CSwap:
		ctrl, err := op.ParamInt("control")
		if err != nil {
			return err
		}
		a, err := op.ParamInt("a")
		if err != nil {
			return err
		}
		b, err := op.ParamInt("b")
		if err != nil {
			return err
		}
		c.CSwap(base+ctrl, base+a, base+b)
	case qop.SwapTest:
		return lowerSwapTest(c, op, regs, offsets)
	case qop.GroverOracle:
		return lowerGroverOracle(c, op, base, width)
	case qop.GroverDiffusion:
		for q := 0; q < width; q++ {
			c.H(base + q)
		}
		phases := make([]complex128, 1<<uint(width))
		phases[0] = 1
		for i := 1; i < len(phases); i++ {
			phases[i] = -1
		}
		if err := c.Diagonal(regQubits(base, width), phases); err != nil {
			return err
		}
		for q := 0; q < width; q++ {
			c.H(base + q)
		}
	case qop.GateList:
		return lowerGateList(c, op, base)
	case qop.Measurement:
		if op.Result == nil {
			return fmt.Errorf("MEASUREMENT without result_schema")
		}
		for cb, ref := range op.Result.ClbitOrder {
			regID, bit, err := qop.ParseBitRef(ref)
			if err != nil {
				return err
			}
			off, ok := offsets[regID]
			if !ok {
				return fmt.Errorf("measurement references unplaced register %q", regID)
			}
			c.Measure(off+bit, cb)
		}
	default:
		return fmt.Errorf("rep_kind %q has no gate-path lowering", op.RepKind)
	}
	return nil
}

func regQubits(base, width int) []int {
	qs := make([]int, width)
	for i := range qs {
		qs[i] = base + i
	}
	return qs
}

// composeAt appends src's instructions with qubits shifted by offset.
func composeAt(dst, src *circuit.Circuit, offset int) error {
	for _, ins := range src.Instrs {
		shifted := ins
		shifted.Qubits = make([]int, len(ins.Qubits))
		for i, q := range ins.Qubits {
			shifted.Qubits[i] = q + offset
		}
		if err := dst.Append(shifted); err != nil {
			return err
		}
	}
	return nil
}

// lowerQPE: |0⟩^n counting ⊗ |1⟩ eigen; controlled-P(2πφ·2^j); inverse
// QFT on counting. Measured counting value ≈ round(φ·2^n).
func lowerQPE(c *circuit.Circuit, op *qop.Operator, regs Registers, offsets map[string]int) error {
	phase, err := op.ParamFloat("phase")
	if err != nil {
		return err
	}
	eigenID, ok := op.Params["eigen_qdt"].(string)
	if !ok {
		return fmt.Errorf("QPE missing eigen_qdt")
	}
	eigenOff, ok := offsets[eigenID]
	if !ok {
		return fmt.Errorf("QPE eigen register %q unplaced", eigenID)
	}
	base := offsets[op.DomainQDT]
	n := regs[op.DomainQDT].Width
	c.X(eigenOff) // eigenstate |1⟩ of P(θ)
	for j := 0; j < n; j++ {
		c.H(base + j)
	}
	for j := 0; j < n; j++ {
		angle := 2 * math.Pi * phase * math.Pow(2, float64(j))
		c.CPhase(angle, base+j, eigenOff)
	}
	inv, err := QFTCircuit(n, 0, true, true)
	if err != nil {
		return err
	}
	return composeAt(c, inv, base)
}

// lowerDraperAdd: QFT (with swaps), per-qubit phases P(2π·c·2^j/2^n),
// inverse QFT. Exact |x⟩ → |x + c mod 2^n⟩.
func lowerDraperAdd(c *circuit.Circuit, base, width int, constant uint64) error {
	fwd, err := QFTCircuit(width, 0, true, false)
	if err != nil {
		return err
	}
	if err := composeAt(c, fwd, base); err != nil {
		return err
	}
	N := math.Pow(2, float64(width))
	for j := 0; j < width; j++ {
		angle := 2 * math.Pi * float64(constant) * math.Pow(2, float64(j)) / N
		c.Phase(angle, base+j)
	}
	inv, err := QFTCircuit(width, 0, true, true)
	if err != nil {
		return err
	}
	return composeAt(c, inv, base)
}

func lowerModPermutation(c *circuit.Circuit, op *qop.Operator, base, width int, f func(x, a, m uint64) uint64) error {
	a, err := op.ParamFloat("a")
	if err != nil {
		return err
	}
	mod, err := op.ParamFloat("modulus")
	if err != nil {
		return err
	}
	aU, mU := uint64(a), uint64(mod)
	size := uint64(1) << uint(width)
	perm := make([]uint64, size)
	for x := uint64(0); x < size; x++ {
		if x < mU {
			perm[x] = f(x, aU, mU)
		} else {
			perm[x] = x
		}
	}
	return c.Permute(regQubits(base, width), perm)
}

// lowerModExp: permutation over exponent ++ target registers realizing
// |e⟩|y⟩ → |e⟩|y·base^e mod M⟩ for y < M.
func lowerModExp(c *circuit.Circuit, op *qop.Operator, regs Registers, offsets map[string]int) error {
	baseParam, err := op.ParamFloat("base")
	if err != nil {
		return err
	}
	mod, err := op.ParamFloat("modulus")
	if err != nil {
		return err
	}
	targetID, ok := op.Params["target_qdt"].(string)
	if !ok {
		return fmt.Errorf("mod_exp missing target_qdt")
	}
	tReg, ok := regs[targetID]
	if !ok {
		return fmt.Errorf("mod_exp target register %q unknown", targetID)
	}
	we := regs[op.DomainQDT].Width
	wt := tReg.Width
	if we+wt > 24 {
		return fmt.Errorf("mod_exp over %d qubits exceeds the 24-qubit permutation limit", we+wt)
	}
	b, m := uint64(baseParam), uint64(mod)
	qubits := append(regQubits(offsets[op.DomainQDT], we), regQubits(offsets[targetID], wt)...)
	size := uint64(1) << uint(we+wt)
	perm := make([]uint64, size)
	for l := uint64(0); l < size; l++ {
		e := l & (uint64(1)<<uint(we) - 1)
		y := l >> uint(we)
		if y < m {
			yNew := y * modPow(b, e, m) % m
			perm[l] = e | yNew<<uint(we)
		} else {
			perm[l] = l
		}
	}
	return c.Permute(qubits, perm)
}

// lowerCompare: |x⟩|b⟩ → |x⟩|b ⊕ (x < constant)⟩ as a permutation over
// the data register plus the flag qubit.
func lowerCompare(c *circuit.Circuit, op *qop.Operator, regs Registers, offsets map[string]int) error {
	constant, err := op.ParamFloat("constant")
	if err != nil {
		return err
	}
	flagID, ok := op.Params["flag_qdt"].(string)
	if !ok {
		return fmt.Errorf("compare missing flag_qdt")
	}
	if _, ok := regs[flagID]; !ok {
		return fmt.Errorf("compare flag register %q unknown", flagID)
	}
	width := regs[op.DomainQDT].Width
	if width+1 > 24 {
		return fmt.Errorf("compare over %d qubits exceeds the 24-qubit permutation limit", width+1)
	}
	qubits := append(regQubits(offsets[op.DomainQDT], width), offsets[flagID])
	cU := uint64(constant)
	size := uint64(1) << uint(width+1)
	perm := make([]uint64, size)
	for l := uint64(0); l < size; l++ {
		x := l & (uint64(1)<<uint(width) - 1)
		b := l >> uint(width)
		if x < cU {
			b ^= 1
		}
		perm[l] = x | b<<uint(width)
	}
	return c.Permute(qubits, perm)
}

func lowerSwapTest(c *circuit.Circuit, op *qop.Operator, regs Registers, offsets map[string]int) error {
	aID, okA := op.Params["a_qdt"].(string)
	bID, okB := op.Params["b_qdt"].(string)
	if !okA || !okB {
		return fmt.Errorf("swap_test missing register params")
	}
	aReg, okA2 := regs[aID]
	bReg, okB2 := regs[bID]
	if !okA2 || !okB2 {
		return fmt.Errorf("swap_test registers unknown")
	}
	if aReg.Width != bReg.Width {
		return fmt.Errorf("swap_test width mismatch")
	}
	anc := offsets[op.DomainQDT]
	aOff, bOff := offsets[aID], offsets[bID]
	c.H(anc)
	for i := 0; i < aReg.Width; i++ {
		c.CSwap(anc, aOff+i, bOff+i)
	}
	c.H(anc)
	return nil
}

// cloneAsIsingProblem lets IsingModelFromOp read an ISING_EVOLUTION
// descriptor (same parameter layout, different rep kind).
func cloneAsIsingProblem(op *qop.Operator) *qop.Operator {
	cp := op.Clone()
	cp.RepKind = qop.IsingProblem
	return cp
}
