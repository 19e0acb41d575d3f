// Package qop implements quantum operator descriptors, the middle layer's
// representation of logical transformations independent of realization
// (paper §4.2).
//
// An Operator names an abstract action (a QFT, a modular adder, an Ising
// cost-phase layer, an Ising problem …) over typed registers, carries its
// parameters, an optional device-independent cost hint, and — when a
// measurement occurs — an explicit result schema specifying how readout is
// produced and decoded. It contains no gates, pulses, or device details;
// those belong to backends and the execution context.
package qop

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SchemaName is the JSON Schema identifier for operator descriptors,
// matching the paper's Listing 3.
const SchemaName = "qod.schema.json"

// RepKind identifies the logical transformation template. The values cover
// every operator the paper names: the QFT template of Listing 3, the QAOA
// descriptor stack of §5/Fig. 2 (PREP_UNIFORM, ISING_COST_PHASE, MIXER_RX,
// MEASUREMENT), the anneal path's ISING_PROBLEM of §5/Fig. 3, and the
// algorithmic-library families of §4.4 (arithmetic, boolean/conditional,
// phase/measurement, state preparation).
type RepKind string

const (
	// Phase / measurement family.
	QFTTemplate   RepKind = "QFT_TEMPLATE"
	QPETemplate   RepKind = "QPE_TEMPLATE"
	SwapTest      RepKind = "SWAP_TEST"
	Measurement   RepKind = "MEASUREMENT"
	PhaseKickback RepKind = "PHASE_KICKBACK"

	// State preparation family.
	PrepUniform   RepKind = "PREP_UNIFORM"
	PrepBasis     RepKind = "PREP_BASIS"
	AngleEncoding RepKind = "ANGLE_ENCODING"
	AmplitudeEnc  RepKind = "AMPLITUDE_ENCODING"

	// QAOA / Ising family.
	IsingCostPhase RepKind = "ISING_COST_PHASE"
	MixerRX        RepKind = "MIXER_RX"
	IsingProblem   RepKind = "ISING_PROBLEM"
	IsingEvolution RepKind = "ISING_EVOLUTION"

	// Arithmetic family.
	AdderTemplate   RepKind = "ADDER_TEMPLATE"
	ModAddTemplate  RepKind = "MOD_ADD_TEMPLATE"
	ModMulTemplate  RepKind = "MOD_MUL_TEMPLATE"
	ModExpTemplate  RepKind = "MOD_EXP_TEMPLATE"
	CompareTemplate RepKind = "COMPARE_TEMPLATE"

	// Boolean / conditional family.
	ControlledOp RepKind = "CONTROLLED_OP"
	Multiplexer  RepKind = "MULTIPLEXER"
	CSwap        RepKind = "CSWAP"

	// Amplitude-amplification family.
	GroverOracle    RepKind = "GROVER_ORACLE"
	GroverDiffusion RepKind = "GROVER_DIFFUSION"

	// Raw gate escape hatch used by tests and lowering.
	GateList RepKind = "GATE_LIST"
)

// knownKinds is the closed set accepted by Validate.
var knownKinds = map[RepKind]bool{
	QFTTemplate: true, QPETemplate: true, SwapTest: true, Measurement: true,
	PhaseKickback: true, PrepUniform: true, PrepBasis: true,
	AngleEncoding: true, AmplitudeEnc: true, IsingCostPhase: true,
	MixerRX: true, IsingProblem: true, IsingEvolution: true,
	AdderTemplate: true, ModAddTemplate: true, ModMulTemplate: true,
	ModExpTemplate: true, CompareTemplate: true, ControlledOp: true,
	Multiplexer: true, CSwap: true, GateList: true,
	GroverOracle: true, GroverDiffusion: true,
}

// CostHint is the device-independent cost estimate the paper attaches to
// operators, "analogous to FLOP counts and communication estimates used by
// HPC schedulers" (§2). All fields are estimates a scheduler may use for
// early planning; zero means unknown, and none may be negative.
type CostHint struct {
	TwoQ       int     `json:"twoq,omitempty"`        // two-qubit gate count
	OneQ       int     `json:"oneq,omitempty"`        // one-qubit gate count
	Depth      int     `json:"depth,omitempty"`       // circuit depth
	Ancilla    int     `json:"ancilla,omitempty"`     // ancilla demand
	CommVolume int     `json:"comm_volume,omitempty"` // inter-QPU operations
	DurationNS float64 `json:"duration_ns,omitempty"` // expected wall time
}

// Add accumulates another hint (sequential composition: depth adds, counts
// add, ancilla takes the max).
func (c CostHint) Add(o CostHint) CostHint {
	return CostHint{
		TwoQ:       c.TwoQ + o.TwoQ,
		OneQ:       c.OneQ + o.OneQ,
		Depth:      c.Depth + o.Depth,
		Ancilla:    maxInt(c.Ancilla, o.Ancilla),
		CommVolume: c.CommVolume + o.CommVolume,
		DurationNS: c.DurationNS + o.DurationNS,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ResultSchema specifies how a downstream readout is produced and decoded
// (paper §4.2, Listing 3): the measurement basis, the datatype the
// bitstring encodes, the significance order, and the mapping of logical
// indices to successive classical bits.
type ResultSchema struct {
	Basis           string   `json:"basis"`            // "Z" (computational), "X", "Y"
	Datatype        string   `json:"datatype"`         // AS_PHASE, AS_BOOL, AS_INT, …
	BitSignificance string   `json:"bit_significance"` // LSB_0 or MSB_0
	ClbitOrder      []string `json:"clbit_order"`      // e.g. "reg_phase[3]"
}

// Validate checks the schema against the register it reads.
func (r *ResultSchema) Validate(registerID string, width int) error {
	var probs []string
	switch r.Basis {
	case "Z", "X", "Y":
	default:
		probs = append(probs, fmt.Sprintf("unknown basis %q", r.Basis))
	}
	switch r.Datatype {
	case "AS_INT", "AS_BOOL", "AS_PHASE", "AS_SPIN", "AS_FIXED":
	default:
		probs = append(probs, fmt.Sprintf("unknown datatype %q", r.Datatype))
	}
	switch r.BitSignificance {
	case "LSB_0", "MSB_0":
	default:
		probs = append(probs, fmt.Sprintf("unknown bit_significance %q", r.BitSignificance))
	}
	if len(r.ClbitOrder) != width {
		probs = append(probs, fmt.Sprintf("clbit_order has %d entries, register width is %d", len(r.ClbitOrder), width))
	}
	seen := map[int]bool{}
	for i, ref := range r.ClbitOrder {
		reg, idx, err := ParseBitRef(ref)
		if err != nil {
			probs = append(probs, err.Error())
			continue
		}
		if reg != registerID {
			probs = append(probs, fmt.Sprintf("clbit %d references register %q, want %q", i, reg, registerID))
		}
		if idx < 0 || idx >= width {
			probs = append(probs, fmt.Sprintf("clbit %d index %d out of [0,%d)", i, idx, width))
		} else if seen[idx] {
			probs = append(probs, fmt.Sprintf("logical index %d mapped twice", idx))
		}
		seen[idx] = true
	}
	if len(probs) > 0 {
		return fmt.Errorf("result_schema: %s", strings.Join(probs, "; "))
	}
	return nil
}

// ParseBitRef parses a logical bit reference of the form "reg[idx]": an
// identifier ([A-Za-z_][A-Za-z0-9_]*) and a decimal index, with no sign or
// space.
func ParseBitRef(ref string) (register string, index int, err error) {
	const digits = "0123456789"
	body, closed := strings.CutSuffix(ref, "]")
	reg, num, open := strings.Cut(body, "[")
	idx, err := strconv.Atoi(num)
	if !closed || !open || err != nil || strings.Trim(num, digits) != "" || reg == "" ||
		strings.IndexByte(digits, reg[0]) >= 0 || strings.Trim(reg, "_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"+digits) != "" {
		return "", 0, fmt.Errorf("qop: malformed bit reference %q", ref)
	}
	return reg, idx, nil
}

// DefaultResultSchema builds the identity readout for a register: Z basis,
// the register's own semantics and significance, clbit i ← reg[i]. This is
// what the paper's Listing 3 writes out longhand.
func DefaultResultSchema(registerID string, width int, datatype, significance string) *ResultSchema {
	order := make([]string, width)
	for i := range order {
		order[i] = fmt.Sprintf("%s[%d]", registerID, i)
	}
	return &ResultSchema{Basis: "Z", Datatype: datatype, BitSignificance: significance, ClbitOrder: order}
}

// Operator is a quantum operator descriptor. JSON field names follow the
// paper's Listing 3.
type Operator struct {
	Schema      string         `json:"$schema"`
	Name        string         `json:"name"`
	RepKind     RepKind        `json:"rep_kind"`
	DomainQDT   string         `json:"domain_qdt"`
	CodomainQDT string         `json:"codomain_qdt"`
	Params      map[string]any `json:"params,omitempty"`
	CostHint    *CostHint      `json:"cost_hint,omitempty"`
	Result      *ResultSchema  `json:"result_schema,omitempty"`

	// Provenance records which library constructed the descriptor (§4.4
	// lists provenance among the metadata algorithmic libraries may add).
	Provenance string `json:"provenance,omitempty"`
}

// New returns an operator descriptor with the schema field set and an
// in-place register contract (domain == codomain), the common case.
func New(name string, kind RepKind, registerID string) *Operator {
	return &Operator{
		Schema:      SchemaName,
		Name:        name,
		RepKind:     kind,
		DomainQDT:   registerID,
		CodomainQDT: registerID,
		Params:      map[string]any{},
	}
}

// Validate checks structural consistency. Register-level checks (widths,
// encodings) happen in Sequence.Validate where the QDT table is available.
func (o *Operator) Validate() error {
	var probs []string
	if o.Schema != SchemaName {
		probs = append(probs, fmt.Sprintf("$schema is %q, want %q", o.Schema, SchemaName))
	}
	if o.Name == "" {
		probs = append(probs, "name is empty")
	}
	if !knownKinds[o.RepKind] {
		probs = append(probs, fmt.Sprintf("unknown rep_kind %q", o.RepKind))
	}
	if o.DomainQDT == "" {
		probs = append(probs, "domain_qdt is empty")
	}
	if o.CodomainQDT == "" {
		probs = append(probs, "codomain_qdt is empty")
	}
	if c := o.CostHint; c != nil {
		hint := []float64{float64(c.TwoQ), float64(c.OneQ), float64(c.Depth), float64(c.Ancilla), float64(c.CommVolume), c.DurationNS}
		for i, name := range []string{"twoq", "oneq", "depth", "ancilla", "comm_volume", "duration_ns"} {
			if hint[i] < 0 {
				probs = append(probs, fmt.Sprintf("cost_hint.%s %v is negative", name, hint[i]))
			}
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("qop %q: %s", o.Name, strings.Join(probs, "; "))
	}
	return nil
}

// SetParam sets a parameter, replacing any existing value.
func (o *Operator) SetParam(key string, v any) *Operator {
	if o.Params == nil {
		o.Params = map[string]any{}
	}
	o.Params[key] = v
	return o
}

// ParamFloat reads a numeric parameter. JSON numbers decode as float64;
// Go-constructed descriptors may hold int or float64.
func (o *Operator) ParamFloat(key string) (float64, error) {
	v, ok := o.Params[key]
	if !ok {
		return 0, fmt.Errorf("qop %q: missing param %q", o.Name, key)
	}
	switch t := v.(type) {
	case float64:
		return t, nil
	case int:
		return float64(t), nil
	case json.Number:
		return t.Float64()
	}
	return 0, fmt.Errorf("qop %q: param %q is %T, want number", o.Name, key, v)
}

// ParamInt reads an integral parameter, rejecting non-integral floats.
func (o *Operator) ParamInt(key string) (int, error) {
	f, err := o.ParamFloat(key)
	if err != nil {
		return 0, err
	}
	if f != math.Trunc(f) {
		return 0, fmt.Errorf("qop %q: param %q = %v is not integral", o.Name, key, f)
	}
	return int(f), nil
}

// ParamBool reads a boolean parameter.
func (o *Operator) ParamBool(key string) (bool, error) {
	v, ok := o.Params[key]
	if !ok {
		return false, fmt.Errorf("qop %q: missing param %q", o.Name, key)
	}
	b, isBool := v.(bool)
	if !isBool {
		return false, fmt.Errorf("qop %q: param %q is %T, want bool", o.Name, key, v)
	}
	return b, nil
}

// ParamFloatDefault reads a numeric parameter, falling back to def when the
// key is absent (but still erroring on a present-but-mistyped value).
func (o *Operator) ParamFloatDefault(key string, def float64) (float64, error) {
	if _, ok := o.Params[key]; !ok {
		return def, nil
	}
	return o.ParamFloat(key)
}

// ParamBoolDefault is ParamBool with a default for absent keys.
func (o *Operator) ParamBoolDefault(key string, def bool) (bool, error) {
	if _, ok := o.Params[key]; !ok {
		return def, nil
	}
	return o.ParamBool(key)
}

// Clone returns a deep copy via JSON round-trip; descriptors are pure data,
// so this is exact. Used by composition helpers so callers' artifacts are
// never aliased.
func (o *Operator) Clone() *Operator {
	b, err := json.Marshal(o)
	if err != nil {
		panic(fmt.Sprintf("qop: clone marshal: %v", err)) // unreachable for pure data
	}
	var cp Operator
	if err := json.Unmarshal(b, &cp); err != nil {
		panic(fmt.Sprintf("qop: clone unmarshal: %v", err))
	}
	return &cp
}

// invertible maps each self-inverse-or-parametrically-invertible kind to
// its inversion rule.
//
// The algorithmic libraries provide "helpers for composition and inversion"
// (§4.4); Invert implements the inversion half for the kinds where a
// logical inverse exists.
func (o *Operator) Invert() (*Operator, error) {
	inv := o.Clone()
	inv.Name = o.Name + "_inv"
	switch o.RepKind {
	case QFTTemplate:
		cur, err := o.ParamBoolDefault("inverse", false)
		if err != nil {
			return nil, err
		}
		inv.SetParam("inverse", !cur)
	case IsingCostPhase:
		g, err := o.ParamFloat("gamma")
		if err != nil {
			return nil, err
		}
		inv.SetParam("gamma", -g)
	case MixerRX:
		b, err := o.ParamFloat("beta")
		if err != nil {
			return nil, err
		}
		inv.SetParam("beta", -b)
	case IsingEvolution:
		tm, err := o.ParamFloat("time")
		if err != nil {
			return nil, err
		}
		inv.SetParam("time", -tm)
	case CSwap, SwapTest, PrepBasis:
		// self-inverse at the logical level (PrepBasis on |0…0⟩).
	case PrepUniform:
		// Hadamard layer is self-inverse.
	case Measurement:
		return nil, fmt.Errorf("qop: MEASUREMENT is not invertible")
	default:
		return nil, fmt.Errorf("qop: no inversion rule for rep_kind %q", o.RepKind)
	}
	return inv, nil
}

// FromJSON parses and validates an operator descriptor.
func FromJSON(src []byte) (*Operator, error) {
	var o Operator
	if err := json.Unmarshal(src, &o); err != nil {
		return nil, fmt.Errorf("qop: parse: %w", err)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &o, nil
}

// MarshalJSON defaults the schema field.
func (o *Operator) MarshalJSON() ([]byte, error) {
	type alias Operator
	cp := *o
	if cp.Schema == "" {
		cp.Schema = SchemaName
	}
	return json.Marshal((*alias)(&cp))
}
