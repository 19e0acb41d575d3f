// Package comm implements the quantum communication context service
// (paper §4.3.1): multi-QPU partitioning, EPR-pair accounting, and
// teleportation insertion for two-qubit gates that cross device
// boundaries.
//
// The executable core is a *coherent* (measurement-deferred) cat-state
// non-local CNOT: an EPR pair bridges the two QPUs, corrections are
// applied as controlled gates instead of classically fed-forward ones, and
// both ancillas provably end in |+⟩ disentangled from the data. This lets
// the statevector engine verify distributed realizations exactly, while
// Analyze provides the communication-volume accounting (EPR pairs,
// classical bits) a scheduler would consume — the cost dimension the
// paper's §2 motivational example calls out as invisible in today's
// stacks.
package comm

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/ctxdesc"
)

// Partition maps each data qubit to a QPU.
type Partition struct {
	QPUs   int
	Assign []int // Assign[q] = QPU of qubit q
}

// BlockPartition slices qubits into contiguous blocks of qubitsPerQPU.
func BlockPartition(numQubits, qpus, qubitsPerQPU int) (*Partition, error) {
	if qpus < 1 || qubitsPerQPU < 1 {
		return nil, fmt.Errorf("comm: invalid partition shape %d QPUs × %d qubits", qpus, qubitsPerQPU)
	}
	if numQubits > qpus*qubitsPerQPU {
		return nil, fmt.Errorf("comm: %d qubits exceed capacity %d×%d", numQubits, qpus, qubitsPerQPU)
	}
	p := &Partition{QPUs: qpus, Assign: make([]int, numQubits)}
	for q := 0; q < numQubits; q++ {
		p.Assign[q] = q / qubitsPerQPU
	}
	return p, nil
}

// FromContext builds a partition for numQubits from the comm block.
func FromContext(cfg *ctxdesc.Comm, numQubits int) (*Partition, error) {
	if cfg == nil {
		return nil, fmt.Errorf("comm: nil comm context")
	}
	// Checked before any per-QPU table is allocated: such a QPU holds no
	// qubit, and qpus is an unbounded request field.
	if cfg.QPUs > numQubits {
		return nil, fmt.Errorf("comm: qpus %d exceeds the circuit's %d qubits", cfg.QPUs, numQubits)
	}
	if len(cfg.Partition) > 0 {
		if len(cfg.Partition) != numQubits {
			return nil, fmt.Errorf("comm: explicit partition covers %d qubits, circuit has %d", len(cfg.Partition), numQubits)
		}
		p := &Partition{QPUs: cfg.QPUs, Assign: append([]int(nil), cfg.Partition...)}
		counts := make([]int, cfg.QPUs)
		for q, dev := range p.Assign {
			if dev < 0 || dev >= cfg.QPUs {
				return nil, fmt.Errorf("comm: qubit %d assigned to nonexistent QPU %d", q, dev)
			}
			counts[dev]++
			if counts[dev] > cfg.QubitsPerQPU {
				return nil, fmt.Errorf("comm: QPU %d over capacity %d", dev, cfg.QubitsPerQPU)
			}
		}
		return p, nil
	}
	return BlockPartition(numQubits, cfg.QPUs, cfg.QubitsPerQPU)
}

// Crossing reports whether an instruction spans two QPUs.
func (p *Partition) Crossing(ins circuit.Instruction) bool {
	if len(ins.Qubits) < 2 {
		return false
	}
	first := p.Assign[ins.Qubits[0]]
	for _, q := range ins.Qubits[1:] {
		if p.Assign[q] != first {
			return true
		}
	}
	return false
}

// Plan is the communication accounting for one circuit under a partition.
type Plan struct {
	CrossingGates int
	EPRPairs      int
	ClassicalBits int // 2 per teleported gate in the measured protocol
	LocalGates    int
	PerQPUGates   []int
	TeleportDepth int // extra depth contributed by teleport subcircuits
}

// Analyze counts the communication resources the circuit needs under the
// partition. Gates on 3+ qubits must be decomposed first.
func Analyze(c *circuit.Circuit, p *Partition) (*Plan, error) {
	if len(p.Assign) < c.NumQubits {
		return nil, fmt.Errorf("comm: partition covers %d qubits, circuit has %d", len(p.Assign), c.NumQubits)
	}
	plan := &Plan{PerQPUGates: make([]int, p.QPUs)}
	for idx, ins := range c.Instrs {
		if ins.Op != circuit.OpGate {
			continue
		}
		if len(ins.Qubits) > 2 {
			return nil, fmt.Errorf("comm: instruction %d: %d-qubit gate must be decomposed before distribution", idx, len(ins.Qubits))
		}
		if p.Crossing(ins) {
			plan.CrossingGates++
			plan.EPRPairs++
			plan.ClassicalBits += 2
			// Coherent protocol: 7 extra gates, depth ≈ 6.
			plan.TeleportDepth += 6
		} else {
			plan.LocalGates++
			plan.PerQPUGates[p.Assign[ins.Qubits[0]]]++
		}
	}
	return plan, nil
}

// NonLocalCX appends the coherent cat-state CNOT between ctrl and tgt
// using fresh ancillas e1 (control side) and e2 (target side). Both
// ancillas must be in |0⟩ and end in |+⟩.
//
// Protocol: EPR prep H(e1)·CX(e1,e2); entangle CX(ctrl,e1); deferred
// X-correction CX(e1,e2); remote action CX(e2,tgt); deferred Z-correction
// H(e2)·CZ(e2,ctrl).
func NonLocalCX(c *circuit.Circuit, ctrl, tgt, e1, e2 int) {
	c.H(e1)
	c.CX(e1, e2)
	c.CX(ctrl, e1)
	c.CX(e1, e2)
	c.CX(e2, tgt)
	c.H(e2)
	c.CZGate(e2, ctrl)
}

// DistributeResult carries the rewritten circuit and its plan.
type DistributeResult struct {
	Circuit *circuit.Circuit
	Plan    *Plan
	// AncillaStart is the index of the first EPR ancilla; ancillas occupy
	// [AncillaStart, Circuit.NumQubits).
	AncillaStart int
}

// Distribute rewrites the circuit so every crossing CX becomes a coherent
// teleported CX over fresh EPR ancillas. Only CX crossings are rewritten
// (decompose to a CX basis first); crossing gates of other kinds are
// rejected. The data-qubit indices are unchanged, so measurement maps
// stay valid.
func Distribute(c *circuit.Circuit, cfg *ctxdesc.Comm) (*DistributeResult, error) {
	p, err := FromContext(cfg, c.NumQubits)
	if err != nil {
		return nil, err
	}
	plan, err := Analyze(c, p)
	if err != nil {
		return nil, err
	}
	if !cfg.AllowTeleport && plan.CrossingGates > 0 {
		return nil, fmt.Errorf("comm: %d crossing gates but allow_teleport is false", plan.CrossingGates)
	}
	if cfg.EPRBufferPairs > 0 && plan.EPRPairs > cfg.EPRBufferPairs {
		return nil, fmt.Errorf("comm: plan needs %d EPR pairs, buffer holds %d", plan.EPRPairs, cfg.EPRBufferPairs)
	}
	out := circuit.New(c.NumQubits+2*plan.EPRPairs, c.NumClbits)
	anc := c.NumQubits
	for idx, ins := range c.Instrs {
		if ins.Op == circuit.OpGate && p.Crossing(ins) {
			if ins.Gate != "cx" {
				return nil, fmt.Errorf("comm: instruction %d: crossing gate %q unsupported; decompose to cx first", idx, ins.Gate)
			}
			NonLocalCX(out, ins.Qubits[0], ins.Qubits[1], anc, anc+1)
			anc += 2
			continue
		}
		if err := out.Append(ins); err != nil {
			return nil, err
		}
	}
	return &DistributeResult{Circuit: out, Plan: plan, AncillaStart: c.NumQubits}, nil
}
