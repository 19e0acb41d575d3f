package bundle

import (
	"testing"

	"repro/internal/ctxdesc"
	"repro/internal/qop"
)

// TestValidateAgainstSchemasMessages pins the exact message for a corpus
// of bundles that break a schema: one fault per artifact kind, then one
// in every kind at once — the order artifacts are reported in is part of
// the message. (Each artifact carries one fault: the validator visits an
// object's properties in map order, so two faults in one object are
// reported in either order.)
func TestValidateAgainstSchemasMessages(t *testing.T) {
	cases := []struct {
		name  string
		fault func(b *Bundle)
		want  string
	}{
		{"qdt", func(b *Bundle) { b.QDTs[0].Width = 63 }, `bundle schemas: qdt "ising_vars": jsonschema: $.width: 63 > maximum 62`},
		{"qdt enum", func(b *Bundle) { b.QDTs[0].EncodingKind = "BOGUS" }, `bundle schemas: qdt "ising_vars": jsonschema: $.encoding_kind: value "BOGUS" not in enum`},
		{"second qdt", func(b *Bundle) {
			d := *b.QDTs[0]
			d.ID, d.Width = "second", 0
			b.QDTs = append(b.QDTs, &d)
		}, `bundle schemas: qdt "second": jsonschema: $.width: 0 < minimum 1`},
		{"operator", func(b *Bundle) { b.Operators[1].RepKind = "lower" }, `bundle schemas: operator 1 (measure): jsonschema: $.rep_kind: string "lower" does not match pattern "^[A-Z][A-Z0-9_]*$"`},
		{"operator cost hint", func(b *Bundle) { b.Operators[0].CostHint = &qop.CostHint{TwoQ: -1} }, `bundle schemas: operator 0 (prep): jsonschema: $.cost_hint.twoq: -1 < minimum 0`},
		{"context", func(b *Bundle) { b.Context.Exec.Samples = -5 }, `bundle schemas: context: jsonschema: $.exec.samples: -5 < minimum 0`},
		{"context block", func(b *Bundle) { b.Context.Anneal = &ctxdesc.Anneal{NumReads: 4, Schedule: "weird"} }, `bundle schemas: context: jsonschema: $.anneal.schedule: value "weird" not in enum`},
		{"bundle", func(b *Bundle) { b.Schema = "other.schema.json" }, `bundle schemas: bundle: jsonschema: $.$schema: value "other.schema.json" != const "job.schema.json"`},
		{"bundle without operators", func(b *Bundle) { b.Operators = qop.Sequence{} }, `bundle schemas: bundle: jsonschema: $.operators: array length 0 < minItems 1`},
		{"every kind at once", func(b *Bundle) {
			b.QDTs[0].BitOrder = "SIDEWAYS"
			b.Operators[0].Name = ""
			b.Operators[1].DomainQDT = ""
			b.Context.Exec.Engine = ""
			b.Schema = "x"
		}, `bundle schemas: qdt "ising_vars": jsonschema: $.bit_order: value "SIDEWAYS" not in enum; operator 0 (): jsonschema: $.name: string length 0 < minLength 1; operator 1 (measure): jsonschema: $.domain_qdt: string length 0 < minLength 1; context: jsonschema: $.exec.engine: string length 0 < minLength 1; bundle: jsonschema: $.$schema: value "x" != const "job.schema.json"`},
	}
	for _, tc := range cases {
		b := testBundle(t)
		tc.fault(b)
		err := b.ValidateAgainstSchemas()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s:\n got: %q\nwant: %q", tc.name, err.Error(), tc.want)
		}
	}
}
