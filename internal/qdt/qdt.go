// Package qdt implements quantum data type descriptors, the middle layer's
// semantic contract for what a quantum register means (paper §4.1).
//
// A DataType declares a register's width, encoding kind, bit significance
// order, measurement semantics and (for phase registers) phase scale — so
// that independently written libraries interpret registers identically and
// results can be decoded automatically, with no guessing about endianness
// or number representation. The descriptor is hardware-agnostic: it says
// what the data represents, never how a backend realizes it.
package qdt

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// SchemaName is the JSON Schema identifier carried in the "$schema" field,
// matching the paper's Listing 2.
const SchemaName = "qdt-core.schema.json"

const (
	// MaxWidth is the widest register: a decoded index fits 62 bits.
	MaxWidth = 62
	// PhaseScalePattern is the shape of a phase_scale on every kind.
	PhaseScalePattern = `^\s*[0-9.]+\s*(/\s*[0-9.]+\s*)?$`
)

var phaseScaleRE = regexp.MustCompile(PhaseScalePattern)

// EncodingKind classifies how basis states of the register are interpreted.
type EncodingKind string

// Encoding kinds from the paper (§4.1 and §5) plus the fixed-point and
// QUBO forms the algorithmic libraries need.
const (
	IntRegister   EncodingKind = "INT_REGISTER"   // |k⟩ decodes to the integer k
	BoolRegister  EncodingKind = "BOOL_REGISTER"  // independent {0,1} flags
	PhaseRegister EncodingKind = "PHASE_REGISTER" // fixed-point phase accumulator
	IsingSpin     EncodingKind = "ISING_SPIN"     // logical spins s ∈ {−1,+1} read as Boolean
	QUBOBinary    EncodingKind = "QUBO_BINARY"    // binary optimization variables x ∈ {0,1}
	FixedPoint    EncodingKind = "FIXED_POINT"    // signed/unsigned fixed-point real
)

// BitOrder fixes the index-to-significance mapping of the register.
type BitOrder string

const (
	LSB0 BitOrder = "LSB_0" // index i has weight 2^i (paper default)
	MSB0 BitOrder = "MSB_0" // index 0 is the most significant bit
)

// MeasurementSemantics tells downstream tools how to interpret Z-basis
// outcomes.
type MeasurementSemantics string

const (
	AsInt   MeasurementSemantics = "AS_INT"
	AsBool  MeasurementSemantics = "AS_BOOL"
	AsPhase MeasurementSemantics = "AS_PHASE"
	AsSpin  MeasurementSemantics = "AS_SPIN"
	AsFixed MeasurementSemantics = "AS_FIXED"
)

// DataType is a quantum data type descriptor. The JSON field names follow
// the paper's Listing 2 exactly.
type DataType struct {
	Schema               string               `json:"$schema"`
	ID                   string               `json:"id"`
	Name                 string               `json:"name"`
	Width                int                  `json:"width"`
	EncodingKind         EncodingKind         `json:"encoding_kind"`
	BitOrder             BitOrder             `json:"bit_order"`
	MeasurementSemantics MeasurementSemantics `json:"measurement_semantics"`

	// PhaseScale maps the observed integer k to a unitless fraction of a
	// full turn, written as a rational like "1/1024" (Listing 2). Required
	// for PHASE_REGISTER; other kinds ignore it but must still write it in
	// PhaseScalePattern's shape.
	PhaseScale string `json:"phase_scale,omitempty"`

	// Signed selects two's-complement interpretation for INT_REGISTER and
	// FIXED_POINT kinds.
	Signed bool `json:"signed,omitempty"`

	// FractionBits is the number of fractional bits for FIXED_POINT; it is
	// never negative.
	FractionBits int `json:"fraction_bits,omitempty"`

	// Metadata carries free-form, non-semantic annotations (provenance,
	// display hints). The middle layer never interprets it.
	Metadata map[string]any `json:"metadata,omitempty"`
}

// New returns a descriptor with the schema field set and LSB_0 ordering,
// the paper's defaults.
func New(id, name string, width int, kind EncodingKind, sem MeasurementSemantics) *DataType {
	return &DataType{
		Schema:               SchemaName,
		ID:                   id,
		Name:                 name,
		Width:                width,
		EncodingKind:         kind,
		BitOrder:             LSB0,
		MeasurementSemantics: sem,
	}
}

// NewPhaseRegister returns the paper's Listing-2 style descriptor: a
// width-qubit fixed-point phase register with resolution 1/2^width.
func NewPhaseRegister(id, name string, width int) *DataType {
	d := New(id, name, width, PhaseRegister, AsPhase)
	d.PhaseScale = fmt.Sprintf("1/%d", uint64(1)<<uint(width))
	return d
}

// NewIsingVars returns the paper's §5 descriptor: width logical spins with
// AS_BOOL readout, as used by both the QAOA and the annealing path.
func NewIsingVars(id, name string, width int) *DataType {
	return New(id, name, width, IsingSpin, AsBool)
}

// Validate checks the descriptor's internal consistency. It returns a
// descriptive error naming every violation found.
func (d *DataType) Validate() error {
	var probs []string
	if d.Schema != SchemaName {
		probs = append(probs, fmt.Sprintf("$schema is %q, want %q", d.Schema, SchemaName))
	}
	if d.ID == "" {
		probs = append(probs, "id is empty")
	}
	if d.Width <= 0 {
		probs = append(probs, fmt.Sprintf("width %d is not positive", d.Width))
	}
	if d.Width > MaxWidth {
		probs = append(probs, fmt.Sprintf("width %d exceeds the %d-carrier decoding limit", d.Width, MaxWidth))
	}
	switch d.EncodingKind {
	case IntRegister, BoolRegister, PhaseRegister, IsingSpin, QUBOBinary, FixedPoint:
	case "":
		probs = append(probs, "encoding_kind is empty")
	default:
		probs = append(probs, fmt.Sprintf("unknown encoding_kind %q", d.EncodingKind))
	}
	switch d.BitOrder {
	case LSB0, MSB0:
	case "":
		probs = append(probs, "bit_order is empty")
	default:
		probs = append(probs, fmt.Sprintf("unknown bit_order %q", d.BitOrder))
	}
	switch d.MeasurementSemantics {
	case AsInt, AsBool, AsPhase, AsSpin, AsFixed:
	case "":
		probs = append(probs, "measurement_semantics is empty")
	default:
		probs = append(probs, fmt.Sprintf("unknown measurement_semantics %q", d.MeasurementSemantics))
	}
	if d.PhaseScale != "" && !phaseScaleRE.MatchString(d.PhaseScale) {
		probs = append(probs, fmt.Sprintf("invalid phase_scale %q", d.PhaseScale))
	} else if d.EncodingKind == PhaseRegister && d.PhaseScale == "" {
		probs = append(probs, "PHASE_REGISTER requires phase_scale")
	} else if d.EncodingKind == PhaseRegister {
		if _, err := ParsePhaseScale(d.PhaseScale); err != nil {
			probs = append(probs, err.Error())
		}
	}
	if d.FractionBits < 0 {
		probs = append(probs, fmt.Sprintf("fraction_bits %d is negative", d.FractionBits))
	} else if d.EncodingKind == FixedPoint && d.FractionBits > d.Width {
		probs = append(probs, fmt.Sprintf("fraction_bits %d out of [0,%d]", d.FractionBits, d.Width))
	}
	if len(probs) > 0 {
		return fmt.Errorf("qdt %q: %s", d.ID, strings.Join(probs, "; "))
	}
	return nil
}

// ParsePhaseScale parses a rational of the form "a/b" (or a plain decimal)
// into a float fraction-of-turn per unit index.
func ParsePhaseScale(s string) (float64, error) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, err1 := strconv.ParseFloat(strings.TrimSpace(s[:i]), 64)
		den, err2 := strconv.ParseFloat(strings.TrimSpace(s[i+1:]), 64)
		if err1 != nil || err2 != nil || den == 0 {
			return 0, fmt.Errorf("qdt: invalid phase_scale %q", s)
		}
		return num / den, nil
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("qdt: invalid phase_scale %q", s)
	}
	return f, nil
}

// IndexFromBits converts a measured classical bit vector (bits[i] is the
// outcome of logical carrier i) into the basis-state index k according to
// the declared bit order. Significance is the single place in the middle
// layer that defines significance order; everything downstream works on
// k.
func (d *DataType) IndexFromBits(bits []uint8) (uint64, error) {
	if len(bits) != d.Width {
		return 0, fmt.Errorf("qdt %q: got %d bits, want width %d", d.ID, len(bits), d.Width)
	}
	var k uint64
	for i, b := range bits {
		if b > 1 {
			return 0, fmt.Errorf("qdt %q: bit %d has value %d", d.ID, i, b)
		}
		if b == 1 {
			k |= 1 << uint(d.Significance(i))
		}
	}
	return k, nil
}

// BitsFromIndex is the inverse of IndexFromBits.
func (d *DataType) BitsFromIndex(k uint64) ([]uint8, error) {
	if d.Width < 64 && k >= uint64(1)<<uint(d.Width) {
		return nil, fmt.Errorf("qdt %q: index %d exceeds width %d", d.ID, k, d.Width)
	}
	bits := make([]uint8, d.Width)
	for i := range bits {
		bits[i] = uint8((k >> uint(d.Significance(i))) & 1)
	}
	return bits, nil
}

// Significance returns the index bit that carrier i sets under the
// declared bit order: i for LSB_0, Width−1−i for MSB_0.
func (d *DataType) Significance(i int) int {
	if d.BitOrder == MSB0 {
		return d.Width - 1 - i
	}
	return i
}

// Value is a decoded measurement outcome. Exactly one field group is
// meaningful, selected by Semantics.
type Value struct {
	Semantics MeasurementSemantics

	Int   int64   // AS_INT, AS_FIXED (raw integer before scaling)
	Float float64 // AS_PHASE (fraction of a turn), AS_FIXED (scaled value)
	Bools []bool  // AS_BOOL
	Spins []int8  // AS_SPIN
	Index uint64  // the raw basis-state index, always set
}

// Decode interprets a basis-state index according to the register's
// measurement semantics.
func (d *DataType) Decode(k uint64) (Value, error) { return d.DecodeInto(k, nil, nil) }

// DecodeInto is Decode writing an AS_BOOL value's flags into bools and an
// AS_SPIN value's spins into spins when that slice is Width long (it
// allocates one otherwise), so a caller decoding many outcomes can carve
// them from one backing slice.
func (d *DataType) DecodeInto(k uint64, bools []bool, spins []int8) (Value, error) {
	v := Value{Semantics: d.MeasurementSemantics, Index: k}
	if d.Width < 64 && k >= uint64(1)<<uint(d.Width) {
		return v, fmt.Errorf("qdt %q: index %d exceeds width %d", d.ID, k, d.Width)
	}
	switch d.MeasurementSemantics {
	case AsInt:
		v.Int = d.toInt(k)
	case AsBool:
		if v.Bools = bools; len(bools) != d.Width {
			v.Bools = make([]bool, d.Width)
		}
		for i := 0; i < d.Width; i++ {
			v.Bools[i] = (k>>uint(i))&1 == 1
		}
	case AsSpin:
		if v.Spins = spins; len(spins) != d.Width {
			v.Spins = make([]int8, d.Width)
		}
		for i := 0; i < d.Width; i++ {
			if (k>>uint(i))&1 == 1 {
				v.Spins[i] = 1
			} else {
				v.Spins[i] = -1
			}
		}
	case AsPhase:
		scale, err := ParsePhaseScale(d.PhaseScale)
		if err != nil {
			return v, err
		}
		v.Float = float64(k) * scale
	case AsFixed:
		raw := d.toInt(k)
		v.Int = raw
		v.Float = float64(raw) / float64(uint64(1)<<uint(d.FractionBits))
	default:
		return v, fmt.Errorf("qdt %q: cannot decode semantics %q", d.ID, d.MeasurementSemantics)
	}
	return v, nil
}

// DecodeBits is Decode composed with IndexFromBits.
func (d *DataType) DecodeBits(bits []uint8) (Value, error) {
	k, err := d.IndexFromBits(bits)
	if err != nil {
		return Value{}, err
	}
	return d.Decode(k)
}

func (d *DataType) toInt(k uint64) int64 {
	if !d.Signed {
		return int64(k)
	}
	// Two's complement within Width bits.
	sign := uint64(1) << uint(d.Width-1)
	if k&sign != 0 {
		return int64(k) - int64(1)<<uint(d.Width)
	}
	return int64(k)
}

// PhaseRadians converts an AS_PHASE Value's turn fraction to radians.
func (v Value) PhaseRadians() float64 { return v.Float * 2 * 3.141592653589793 }

// BitstringLSBFirst renders index k as a bit string with carrier 0 first,
// the convention the paper uses when reporting "1010" and "0101" for the
// §5 Max-Cut (bit i is the ith character).
func (d *DataType) BitstringLSBFirst(k uint64) string {
	var sb strings.Builder
	for i := 0; i < d.Width; i++ {
		if (k>>uint(i))&1 == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Compatible reports whether two descriptors can be legally composed on the
// same register: identical width, encoding kind and bit order. Differing
// measurement semantics are allowed (they only matter at readout).
func Compatible(a, b *DataType) error {
	if a.Width != b.Width {
		return fmt.Errorf("qdt: width mismatch %q(%d) vs %q(%d)", a.ID, a.Width, b.ID, b.Width)
	}
	if a.EncodingKind != b.EncodingKind {
		return fmt.Errorf("qdt: encoding mismatch %q(%s) vs %q(%s)", a.ID, a.EncodingKind, b.ID, b.EncodingKind)
	}
	if a.BitOrder != b.BitOrder {
		return fmt.Errorf("qdt: bit order mismatch %q(%s) vs %q(%s)", a.ID, a.BitOrder, b.ID, b.BitOrder)
	}
	return nil
}

// MarshalJSON emits the descriptor with its schema field defaulted, so
// hand-constructed descriptors still serialize validly.
func (d *DataType) MarshalJSON() ([]byte, error) {
	type alias DataType
	cp := *d
	if cp.Schema == "" {
		cp.Schema = SchemaName
	}
	return json.Marshal((*alias)(&cp))
}

// FromJSON parses and validates a descriptor.
func FromJSON(src []byte) (*DataType, error) {
	var d DataType
	if err := json.Unmarshal(src, &d); err != nil {
		return nil, fmt.Errorf("qdt: parse: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}
