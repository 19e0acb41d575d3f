package bundle

import (
	"strings"
	"testing"

	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qop"
)

// TestValidateAgainstSchemasMessages pins the exact message for a corpus
// of bundles that break a schema: one fault per artifact kind, then one
// in every kind at once — the order artifacts are reported in is part of
// the message. (Within one object, faults are reported in property-name
// order.)
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
		if b.Validate(qop.ValidateOptions{}) == nil {
			t.Errorf("%s: Validate accepts what the schemas refuse", tc.name)
		}
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

// TestTypedRulesHoldSchemaRules: for each schema rule the typed validators
// once lacked, a bundle that breaks only that rule is refused by Validate
// (naming the field), by FromJSON and by ValidateAgainstSchemas. With
// these, the typed rules are the only ones the execution path needs.
func TestTypedRulesHoldSchemaRules(t *testing.T) {
	hint := func(h qop.CostHint) func(b *Bundle) { return func(b *Bundle) { b.Operators[0].CostHint = &h } }
	cases := []struct {
		name  string
		fault func(b *Bundle)
		want  string
	}{
		{"cost_hint.twoq", hint(qop.CostHint{TwoQ: -1}), "cost_hint.twoq"},
		{"cost_hint.oneq", hint(qop.CostHint{OneQ: -1}), "cost_hint.oneq"},
		{"cost_hint.depth", hint(qop.CostHint{Depth: -1}), "cost_hint.depth"},
		{"cost_hint.ancilla", hint(qop.CostHint{Ancilla: -1}), "cost_hint.ancilla"},
		{"cost_hint.comm_volume", hint(qop.CostHint{CommVolume: -1}), "cost_hint.comm_volume"},
		{"cost_hint.duration_ns", hint(qop.CostHint{DurationNS: -0.5}), "cost_hint.duration_ns"},
		{"fraction_bits off FIXED_POINT", func(b *Bundle) { b.QDTs[0].FractionBits = -1 }, "fraction_bits"},
		{"phase_scale off PHASE_REGISTER", func(b *Bundle) { b.QDTs[0].PhaseScale = "-1/2" }, "phase_scale"},
		{"phase_scale ParseFloat takes", func(b *Bundle) {
			b.QDTs[0].EncodingKind, b.QDTs[0].PhaseScale = qdt.PhaseRegister, "1e-4"
		}, "phase_scale"},
		{"clbit_order reference", func(b *Bundle) { b.Operators[1].Result.ClbitOrder[0] = "ising_vars[ 0]" }, "ising_vars[ 0]"},
		{"exec.target.num_qubits", func(b *Bundle) { b.Context.Exec.Target = &ctxdesc.Target{NumQubits: -1} }, "exec.target.num_qubits"},
		{"qec.rounds", func(b *Bundle) { b.Context.QEC = &ctxdesc.QEC{CodeFamily: "surface", Distance: 3, Rounds: -1} }, "qec.rounds"},
		{"anneal.unit_cells", func(b *Bundle) { b.Context.Anneal = &ctxdesc.Anneal{NumReads: 4, UnitCells: -1} }, "anneal.unit_cells"},
		{"anneal.chain_strength", func(b *Bundle) { b.Context.Anneal = &ctxdesc.Anneal{NumReads: 4, ChainStrength: -0.5} }, "anneal.chain_strength"},
		{"comm.epr_buffer", func(b *Bundle) { b.Context.Comm = &ctxdesc.Comm{QPUs: 1, QubitsPerQPU: 4, EPRBufferPairs: -1} }, "comm.epr_buffer"},
		{"pulse.calibrations", func(b *Bundle) {
			b.Context.Pulse = &ctxdesc.Pulse{Calibrations: map[string]float64{"cx": 300, "sx": -1}}
		}, `pulse.calibrations["sx"]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := testBundle(t)
			tc.fault(b)
			if err := b.Validate(qop.ValidateOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate: %v, want an error naming %s", err, tc.want)
			}
			raw, err := b.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := FromJSON(raw, qop.ValidateOptions{}); err == nil {
				t.Error("FromJSON accepted it")
			}
			if err := b.ValidateAgainstSchemas(); err == nil {
				t.Error("ValidateAgainstSchemas accepted it")
			}
		})
	}

	// In bounds, every one of those fields passes all three.
	b := testBundle(t)
	b.QDTs[0].PhaseScale, b.QDTs[0].FractionBits = " 1 / 16 ", 2
	b.Operators[0].CostHint = &qop.CostHint{TwoQ: 1, OneQ: 2, Depth: 3, Ancilla: 4, CommVolume: 5, DurationNS: 6.5}
	b.Context.Exec.Target = &ctxdesc.Target{NumQubits: 4}
	b.Context.QEC = &ctxdesc.QEC{CodeFamily: "repetition", Distance: 3, Rounds: 2}
	b.Context.Anneal = &ctxdesc.Anneal{NumReads: 4, UnitCells: 1, ChainStrength: 1.5}
	b.Context.Comm = &ctxdesc.Comm{QPUs: 1, QubitsPerQPU: 4, EPRBufferPairs: 2}
	b.Context.Pulse = &ctxdesc.Pulse{Calibrations: map[string]float64{"cx": 300}}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSON(raw, qop.ValidateOptions{}); err != nil {
		t.Errorf("FromJSON: %v", err)
	}
	if err := b.ValidateAgainstSchemas(); err != nil {
		t.Errorf("ValidateAgainstSchemas: %v", err)
	}
}
