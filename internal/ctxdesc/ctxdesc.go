// Package ctxdesc implements context descriptors: declarative records that
// specify how an operator sequence may be executed without changing its
// meaning (paper §4.3).
//
// A Context carries execution policy (engine, samples, seed, target
// constraints, transpiler options — Listing 4), an optional error
// correction policy (Listing 5), and the orthogonal-service blocks for
// annealing, distributed communication and pulse control (§4.3.1). The
// middle layer guarantees that swapping contexts never mutates the intent
// artifacts (quantum data types and operator descriptors).
package ctxdesc

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// SchemaName matches the "$schema" field of the paper's Listings 4 and 5.
const SchemaName = "ctx.schema.json"

// Context is the top-level context descriptor.
type Context struct {
	Schema string  `json:"$schema"`
	Exec   *Exec   `json:"exec,omitempty"`
	QEC    *QEC    `json:"qec,omitempty"`
	Anneal *Anneal `json:"anneal,omitempty"`
	Comm   *Comm   `json:"comm,omitempty"`
	Pulse  *Pulse  `json:"pulse,omitempty"`
	Sweep  *Sweep  `json:"sweep,omitempty"`

	// Extensions carries forward-compatible blocks the core does not
	// interpret (Listing 5 shows an "extensions" field).
	Extensions map[string]any `json:"extensions,omitempty"`
}

// Exec is the execution-policy block (Listing 4).
type Exec struct {
	// Engine selects the backend, e.g. "gate.statevector" (our Aer
	// substitute), "anneal.sa" (our neal substitute), "pulse.model".
	Engine string `json:"engine"`

	// Samples is the number of shots/reads to draw.
	Samples int `json:"samples,omitempty"`

	// Seed makes every stochastic stage deterministic.
	Seed uint64 `json:"seed,omitempty"`

	// Target constrains compilation: basis gates and qubit connectivity.
	// Omitting it yields an ideal all-to-all configuration (paper §4.3).
	Target *Target `json:"target,omitempty"`

	// Options passes engine-specific settings such as
	// optimization_level.
	Options map[string]any `json:"options,omitempty"`
}

// Target describes the compilation target (Listing 4's "target" block).
type Target struct {
	BasisGates  []string `json:"basis_gates,omitempty"`
	CouplingMap [][2]int `json:"coupling_map,omitempty"`
	NumQubits   int      `json:"num_qubits,omitempty"`
}

// QEC is the error-correction policy block (Listing 5). Error correction
// is execution context: the same logical program runs unmodified with or
// without it.
type QEC struct {
	CodeFamily     string   `json:"code_family"` // "surface", "repetition"
	Distance       int      `json:"distance"`
	Allocator      string   `json:"allocator,omitempty"` // "auto" delegates patch placement
	LogicalGateSet []string `json:"logical_gate_set,omitempty"`
	Decoder        string   `json:"decoder,omitempty"`         // "majority", "mwpm_lite"
	PhysErrorRate  float64  `json:"phys_error_rate,omitempty"` // per-round physical error probability
	Rounds         int      `json:"rounds,omitempty"`          // syndrome rounds per logical op (0 = distance)
}

// MaxAnnealSweeps bounds anneal.sweeps. The annealer tabulates one inverse
// temperature per sweep (8 MB at the bound) before its reads start, so
// the bound keeps one request from exhausting memory.
const MaxAnnealSweeps = 1_000_000

// MaxAnnealReads bounds anneal.num_reads. The annealer derives one random
// stream and one result mask per read (48 MB at the bound) before its
// reads start, so the bound keeps one request from exhausting memory.
const MaxAnnealReads = 1 << 20

// MaxSamples bounds exec.samples. A noisy gate run derives one random
// stream per shot (40 MB at the bound) before its first trajectory, so
// the bound keeps one request from exhausting memory.
const MaxSamples = 1 << 20

// Anneal is the annealer-settings block (§5's `"contexts": {"anneal": …}`).
type Anneal struct {
	NumReads      int     `json:"num_reads"`
	Sweeps        int     `json:"sweeps,omitempty"`     // Metropolis sweeps per read (default 1000)
	BetaMin       float64 `json:"beta_min,omitempty"`   // initial inverse temperature
	BetaMax       float64 `json:"beta_max,omitempty"`   // final inverse temperature
	Schedule      string  `json:"schedule,omitempty"`   // "geometric" (default) or "linear"
	Embed         bool    `json:"embed,omitempty"`      // minor-embed onto the hardware graph
	Topology      string  `json:"topology,omitempty"`   // "chimera" hardware graph family
	UnitCells     int     `json:"unit_cells,omitempty"` // Chimera grid side
	ChainStrength float64 `json:"chain_strength,omitempty"`
}

// Comm is the distributed-execution block (§4.3.1: quantum communication
// with teleportation and remote operations between devices).
type Comm struct {
	QPUs           int   `json:"qpus"`                 // number of devices
	QubitsPerQPU   int   `json:"qubits_per_qpu"`       // capacity of each device
	AllowTeleport  bool  `json:"allow_teleport"`       // permit teleported two-qubit gates
	Partition      []int `json:"partition,omitempty"`  // explicit qubit→QPU map; empty = block partition
	EPRBufferPairs int   `json:"epr_buffer,omitempty"` // pre-shared entanglement budget (0 = unlimited)
}

// Sweep is the parameter-sweep block: operator parameters carrying the
// marker "$name" (for a name listed in Params) are bound per point from
// the Points grid, one execution per point. The program compiles once
// as a parametric plan; per-point results are bit-identical to
// submitting the same bundle with the point's concrete values in place
// of the markers.
type Sweep struct {
	// Params names the sweep parameters in bind-vector order: point
	// index j supplies the value for "$Params[j]".
	Params []string `json:"params"`
	// Points is the evaluation grid; every row has len(Params) values.
	Points [][]float64 `json:"points"`
}

// Pulse is the pulse/control block (§4.3.1).
type Pulse struct {
	DTNanos      float64            `json:"dt_ns,omitempty"` // sample period
	SingleGateNS float64            `json:"single_gate_ns,omitempty"`
	TwoGateNS    float64            `json:"two_gate_ns,omitempty"`
	Calibrations map[string]float64 `json:"calibrations,omitempty"` // per-gate duration overrides
}

// New returns a context with the schema field set.
func New() *Context { return &Context{Schema: SchemaName} }

// NewGate returns the paper's Listing-4 shape: a gate-engine execution
// context with samples and seed.
func NewGate(engine string, samples int, seed uint64) *Context {
	c := New()
	c.Exec = &Exec{Engine: engine, Samples: samples, Seed: seed}
	return c
}

// NewAnneal returns an annealing context in the §5 shape.
func NewAnneal(engine string, numReads int, seed uint64) *Context {
	c := New()
	c.Exec = &Exec{Engine: engine, Seed: seed}
	c.Anneal = &Anneal{NumReads: numReads}
	return c
}

// Validate checks internal consistency of whichever blocks are present.
func (c *Context) Validate() error {
	var probs []string
	// negative reports a field the schema bounds below by zero.
	negative := func(field string, v float64) {
		if v < 0 {
			probs = append(probs, fmt.Sprintf("%s %v is negative", field, v))
		}
	}
	if c.Schema != SchemaName {
		probs = append(probs, fmt.Sprintf("$schema is %q, want %q", c.Schema, SchemaName))
	}
	if c.Exec != nil {
		if c.Exec.Engine == "" {
			probs = append(probs, "exec.engine is empty")
		}
		negative("exec.samples", float64(c.Exec.Samples))
		if c.Exec.Samples > MaxSamples {
			probs = append(probs, fmt.Sprintf("exec.samples %d exceeds %d", c.Exec.Samples, MaxSamples))
		}
		if t := c.Exec.Target; t != nil {
			negative("exec.target.num_qubits", float64(t.NumQubits))
			for i, pair := range t.CouplingMap {
				if pair[0] == pair[1] {
					probs = append(probs, fmt.Sprintf("exec.target.coupling_map[%d] is a self-loop (%d,%d)", i, pair[0], pair[1]))
				}
				if pair[0] < 0 || pair[1] < 0 {
					probs = append(probs, fmt.Sprintf("exec.target.coupling_map[%d] has negative qubit", i))
				}
				if t.NumQubits > 0 && (pair[0] >= t.NumQubits || pair[1] >= t.NumQubits) {
					probs = append(probs, fmt.Sprintf("exec.target.coupling_map[%d] exceeds num_qubits %d", i, t.NumQubits))
				}
			}
		}
	}
	if q := c.QEC; q != nil {
		switch q.CodeFamily {
		case "surface", "repetition":
		case "":
			probs = append(probs, "qec.code_family is empty")
		default:
			probs = append(probs, fmt.Sprintf("unknown qec.code_family %q", q.CodeFamily))
		}
		if q.Distance < 1 {
			probs = append(probs, fmt.Sprintf("qec.distance %d < 1", q.Distance))
		} else if q.Distance%2 == 0 {
			probs = append(probs, fmt.Sprintf("qec.distance %d must be odd", q.Distance))
		}
		if q.PhysErrorRate < 0 || q.PhysErrorRate >= 1 {
			probs = append(probs, fmt.Sprintf("qec.phys_error_rate %v out of [0,1)", q.PhysErrorRate))
		}
		negative("qec.rounds", float64(q.Rounds))
		switch q.Decoder {
		case "", "majority", "mwpm_lite":
		default:
			probs = append(probs, fmt.Sprintf("unknown qec.decoder %q", q.Decoder))
		}
	}
	if a := c.Anneal; a != nil {
		if a.NumReads < 1 {
			probs = append(probs, fmt.Sprintf("anneal.num_reads %d < 1", a.NumReads))
		} else if a.NumReads > MaxAnnealReads {
			probs = append(probs, fmt.Sprintf("anneal.num_reads %d exceeds %d", a.NumReads, MaxAnnealReads))
		}
		negative("anneal.sweeps", float64(a.Sweeps))
		if a.Sweeps > MaxAnnealSweeps {
			probs = append(probs, fmt.Sprintf("anneal.sweeps %d exceeds %d", a.Sweeps, MaxAnnealSweeps))
		}
		if a.BetaMin < 0 || a.BetaMax < 0 || (a.BetaMax != 0 && a.BetaMin > a.BetaMax) {
			probs = append(probs, fmt.Sprintf("anneal beta range [%v,%v] invalid", a.BetaMin, a.BetaMax))
		}
		switch a.Schedule {
		case "", "geometric", "linear":
		default:
			probs = append(probs, fmt.Sprintf("unknown anneal.schedule %q", a.Schedule))
		}
		negative("anneal.unit_cells", float64(a.UnitCells))
		negative("anneal.chain_strength", a.ChainStrength)
	}
	if m := c.Comm; m != nil {
		if m.QPUs < 1 {
			probs = append(probs, fmt.Sprintf("comm.qpus %d < 1", m.QPUs))
		}
		if m.QubitsPerQPU < 1 {
			probs = append(probs, fmt.Sprintf("comm.qubits_per_qpu %d < 1", m.QubitsPerQPU))
		}
		for i, p := range m.Partition {
			if p < 0 || p >= m.QPUs {
				probs = append(probs, fmt.Sprintf("comm.partition[%d] = %d out of [0,%d)", i, p, m.QPUs))
			}
		}
		negative("comm.epr_buffer", float64(m.EPRBufferPairs))
	}
	if p := c.Pulse; p != nil {
		negative("pulse.dt_ns", p.DTNanos)
		negative("pulse.single_gate_ns", p.SingleGateNS)
		negative("pulse.two_gate_ns", p.TwoGateNS)
		for _, gate := range slices.Sorted(maps.Keys(p.Calibrations)) {
			negative(fmt.Sprintf("pulse.calibrations[%q]", gate), p.Calibrations[gate])
		}
	}
	if s := c.Sweep; s != nil {
		if len(s.Params) == 0 {
			probs = append(probs, "sweep.params is empty")
		}
		seen := make(map[string]bool, len(s.Params))
		for i, name := range s.Params {
			if name == "" {
				probs = append(probs, fmt.Sprintf("sweep.params[%d] is empty", i))
			} else if seen[name] {
				probs = append(probs, fmt.Sprintf("sweep.params[%d] %q is duplicated", i, name))
			}
			seen[name] = true
		}
		if len(s.Points) == 0 {
			probs = append(probs, "sweep.points is empty")
		}
		for i, pt := range s.Points {
			if len(pt) != len(s.Params) {
				probs = append(probs, fmt.Sprintf("sweep.points[%d] has %d values for %d params", i, len(pt), len(s.Params)))
				continue
			}
			for j, v := range pt {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					probs = append(probs, fmt.Sprintf("sweep.points[%d][%d] is not finite", i, j))
				}
			}
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("ctx: %s", strings.Join(probs, "; "))
	}
	return nil
}

// OptimizationLevel reads exec.options.optimization_level, defaulting to 1.
func (c *Context) OptimizationLevel() int {
	if c.Exec == nil || c.Exec.Options == nil {
		return 1
	}
	v, ok := c.Exec.Options["optimization_level"]
	if !ok {
		return 1
	}
	switch t := v.(type) {
	case float64:
		return int(t)
	case int:
		return t
	}
	return 1
}

// EngineFamily returns the prefix before the first '.' of exec.engine,
// which names the backend family ("gate", "anneal", "pulse").
func (c *Context) EngineFamily() string {
	if c.Exec == nil {
		return ""
	}
	if i := strings.IndexByte(c.Exec.Engine, '.'); i >= 0 {
		return c.Exec.Engine[:i]
	}
	return c.Exec.Engine
}

// Clone returns a deep copy via JSON round-trip.
func (c *Context) Clone() *Context {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("ctxdesc: clone marshal: %v", err))
	}
	var cp Context
	if err := json.Unmarshal(b, &cp); err != nil {
		panic(fmt.Sprintf("ctxdesc: clone unmarshal: %v", err))
	}
	return &cp
}

// Merge overlays o's non-nil blocks onto a copy of c, the mechanism for
// composing a base policy with per-run overrides. Extensions merge by key.
func (c *Context) Merge(o *Context) *Context {
	out := c.Clone()
	if o == nil {
		return out
	}
	if o.Exec != nil {
		out.Exec = o.Clone().Exec
	}
	if o.QEC != nil {
		out.QEC = o.Clone().QEC
	}
	if o.Anneal != nil {
		out.Anneal = o.Clone().Anneal
	}
	if o.Comm != nil {
		out.Comm = o.Clone().Comm
	}
	if o.Pulse != nil {
		out.Pulse = o.Clone().Pulse
	}
	if o.Sweep != nil {
		out.Sweep = o.Clone().Sweep
	}
	for k, v := range o.Extensions {
		if out.Extensions == nil {
			out.Extensions = map[string]any{}
		}
		out.Extensions[k] = v
	}
	return out
}

// FromJSON parses and validates a context descriptor.
func FromJSON(src []byte) (*Context, error) {
	var c Context
	if err := json.Unmarshal(src, &c); err != nil {
		return nil, fmt.Errorf("ctxdesc: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// MarshalJSON defaults the schema field.
func (c *Context) MarshalJSON() ([]byte, error) {
	type alias Context
	cp := *c
	if cp.Schema == "" {
		cp.Schema = SchemaName
	}
	return json.Marshal((*alias)(&cp))
}
