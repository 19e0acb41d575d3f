// Package bundle implements submission bundles: the packaging step that
// combines quantum data types, an operator descriptor sequence, and an
// optional execution context into a single job.json artifact for a backend
// (paper §4.4).
//
// The bundle keeps the paper's central separation observable: QDTs and
// operators are *intent* artifacts, the context is *policy*. Fingerprint
// hashes only the intent half, so retargeting a job to a different backend
// provably leaves the intent unchanged (experiment E9).
package bundle

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/schemas"
)

// SchemaName identifies the bundle schema.
const SchemaName = "job.schema.json"

// Version is the middle-layer artifact version recorded in provenance.
const Version = "0.1.0"

// Provenance records who built the bundle and the intent fingerprint.
type Provenance struct {
	CreatedBy         string `json:"created_by,omitempty"`
	Version           string `json:"version,omitempty"`
	IntentFingerprint string `json:"intent_fingerprint,omitempty"`
}

// Bundle is a job.json document.
type Bundle struct {
	Schema     string           `json:"$schema"`
	QDTs       []*qdt.DataType  `json:"qdts"`
	Operators  qop.Sequence     `json:"operators"`
	Context    *ctxdesc.Context `json:"context,omitempty"`
	Provenance *Provenance      `json:"provenance,omitempty"`
}

// New assembles a bundle, stamping provenance with the intent fingerprint.
func New(qdts []*qdt.DataType, ops qop.Sequence, ctx *ctxdesc.Context) (*Bundle, error) {
	b := &Bundle{Schema: SchemaName, QDTs: qdts, Operators: ops, Context: ctx}
	fp, err := b.Fingerprint()
	if err != nil {
		return nil, err
	}
	b.Provenance = &Provenance{CreatedBy: "repro/internal/algolib", Version: Version, IntentFingerprint: fp}
	return b, nil
}

// Widths returns the register-width table referenced by sequence
// validation.
func (b *Bundle) Widths() qop.QDTWidths {
	w := qop.QDTWidths{}
	for _, d := range b.QDTs {
		w[d.ID] = d.Width
	}
	return w
}

// QDT returns the data type with the given id.
func (b *Bundle) QDT(id string) (*qdt.DataType, error) {
	for _, d := range b.QDTs {
		if d.ID == id {
			return d, nil
		}
	}
	return nil, fmt.Errorf("bundle: no QDT with id %q", id)
}

// Validate performs the full early-validation pass: every descriptor's
// checks (which include every rule of its JSON Schema), unique register
// ids, sequence-level composition rules, and the context block.
func (b *Bundle) Validate(opts qop.ValidateOptions) error {
	var probs []string
	if b.Schema != SchemaName {
		probs = append(probs, fmt.Sprintf("$schema is %q, want %q", b.Schema, SchemaName))
	}
	if len(b.QDTs) == 0 {
		probs = append(probs, "bundle declares no quantum data types")
	}
	if len(b.Operators) == 0 {
		probs = append(probs, "bundle declares no operators")
	}
	seen := map[string]bool{}
	for i, d := range b.QDTs {
		if d == nil {
			probs = append(probs, fmt.Sprintf("qdts[%d] is nil", i))
			continue
		}
		if err := d.Validate(); err != nil {
			probs = append(probs, err.Error())
		}
		if seen[d.ID] {
			probs = append(probs, fmt.Sprintf("duplicate QDT id %q", d.ID))
		}
		seen[d.ID] = true
	}
	if err := b.Operators.Validate(b.Widths(), opts); err != nil {
		probs = append(probs, err.Error())
	}
	if b.Context != nil {
		if err := b.Context.Validate(); err != nil {
			probs = append(probs, err.Error())
		}
	}
	if len(probs) > 0 {
		return fmt.Errorf("bundle: %s", strings.Join(probs, "; "))
	}
	return nil
}

// ValidateAgainstSchemas runs the JSON of every artifact through its
// embedded JSON Schema: the conformance check for artifacts other tools
// write. It is not on the execution path. Validate enforces every schema
// rule, so a bundle FromJSON accepts always passes it. The bundle is
// marshaled and decoded once; each QDT, operator and the context is
// validated as its subtree of that one document.
func (b *Bundle) ValidateAgainstSchemas() error {
	raw, err := json.Marshal(b)
	if err != nil {
		return err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	var probs []string
	check := func(schema string, v any, what func() string) {
		s, err := schemas.Get(schema)
		if err == nil {
			err = s.Validate(v)
		}
		if err != nil {
			probs = append(probs, fmt.Sprintf("%s: %v", what(), err))
		}
	}
	qdts, _ := doc["qdts"].([]any)
	for i, d := range b.QDTs {
		check("qdt-core.schema.json", qdts[i], func() string { return fmt.Sprintf("qdt %q", d.ID) })
	}
	ops, _ := doc["operators"].([]any)
	for i, op := range b.Operators {
		check("qod.schema.json", ops[i], func() string { return fmt.Sprintf("operator %d (%s)", i, op.Name) })
	}
	if b.Context != nil {
		check("ctx.schema.json", doc["context"], func() string { return "context" })
	}
	check("job.schema.json", doc, func() string { return "bundle" })
	if len(probs) > 0 {
		return fmt.Errorf("bundle schemas: %s", strings.Join(probs, "; "))
	}
	return nil
}

// Fingerprint returns a hex SHA-256 over the canonical JSON of the intent
// artifacts only (QDTs and operators, not context or provenance).
// Identical intent under different contexts yields identical fingerprints.
func (b *Bundle) Fingerprint() (string, error) {
	intent := struct {
		QDTs      []*qdt.DataType `json:"qdts"`
		Operators qop.Sequence    `json:"operators"`
	}{b.QDTs, b.Operators}
	raw, err := json.Marshal(intent)
	if err != nil {
		return "", fmt.Errorf("bundle: fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// WithContext returns a copy of the bundle carrying a different context.
// The intent artifacts are shared (they are immutable by convention) and
// the fingerprint is preserved — this is the paper's "swap only the
// context descriptor" move.
func (b *Bundle) WithContext(ctx *ctxdesc.Context) *Bundle {
	cp := *b
	cp.Context = ctx
	return &cp
}

// Marshal serializes the bundle as indented job.json bytes.
func (b *Bundle) Marshal() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// FromJSON parses a bundle and runs semantic validation.
func FromJSON(src []byte, opts qop.ValidateOptions) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(src, &b); err != nil {
		return nil, fmt.Errorf("bundle: parse: %w", err)
	}
	if err := b.Validate(opts); err != nil {
		return nil, err
	}
	return &b, nil
}

// Save writes job.json to path.
func (b *Bundle) Save(path string) error {
	raw, err := b.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// Load reads and validates job.json from path.
func Load(path string, opts qop.ValidateOptions) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	return FromJSON(raw, opts)
}
