// Package schemas embeds the JSON Schema documents that descriptor
// artifacts name in their "$schema" fields (qdt-core.schema.json,
// qod.schema.json, ctx.schema.json, job.schema.json) and exposes compiled
// validators for them.
//
// Descriptor structs in qdt/qop/ctxdesc validate semantic consistency; the
// schemas here validate the raw JSON shape, which matters for artifacts
// arriving from other tools (the interoperability case the paper's
// composability principle targets).
package schemas

import (
	"fmt"
	"sort"

	"repro/internal/jsonschema"
)

// QDT is qdt-core.schema.json (paper Listing 2).
const QDT = `{
  "$id": "qdt-core.schema.json",
  "type": "object",
  "required": ["id", "width", "encoding_kind", "bit_order", "measurement_semantics"],
  "properties": {
    "$schema": {"const": "qdt-core.schema.json"},
    "id": {"type": "string", "minLength": 1},
    "name": {"type": "string"},
    "width": {"type": "integer", "minimum": 1, "maximum": 62},
    "encoding_kind": {"enum": ["INT_REGISTER", "BOOL_REGISTER", "PHASE_REGISTER", "ISING_SPIN", "QUBO_BINARY", "FIXED_POINT"]},
    "bit_order": {"enum": ["LSB_0", "MSB_0"]},
    "measurement_semantics": {"enum": ["AS_INT", "AS_BOOL", "AS_PHASE", "AS_SPIN", "AS_FIXED"]},
    "phase_scale": {"type": "string", "pattern": "^\\s*[0-9.]+\\s*(/\\s*[0-9.]+\\s*)?$"},
    "signed": {"type": "boolean"},
    "fraction_bits": {"type": "integer", "minimum": 0},
    "metadata": {"type": "object"}
  },
  "additionalProperties": false
}`

// QOD is qod.schema.json (paper Listing 3).
const QOD = `{
  "$id": "qod.schema.json",
  "type": "object",
  "required": ["name", "rep_kind", "domain_qdt", "codomain_qdt"],
  "properties": {
    "$schema": {"const": "qod.schema.json"},
    "name": {"type": "string", "minLength": 1},
    "rep_kind": {"type": "string", "pattern": "^[A-Z][A-Z0-9_]*$"},
    "domain_qdt": {"type": "string", "minLength": 1},
    "codomain_qdt": {"type": "string", "minLength": 1},
    "params": {"type": "object"},
    "provenance": {"type": "string"},
    "cost_hint": {
      "type": "object",
      "properties": {
        "twoq": {"type": "integer", "minimum": 0},
        "oneq": {"type": "integer", "minimum": 0},
        "depth": {"type": "integer", "minimum": 0},
        "ancilla": {"type": "integer", "minimum": 0},
        "comm_volume": {"type": "integer", "minimum": 0},
        "duration_ns": {"type": "number", "minimum": 0}
      },
      "additionalProperties": false
    },
    "result_schema": {"$ref": "#/$defs/result_schema"}
  },
  "additionalProperties": false,
  "$defs": {
    "result_schema": {
      "type": "object",
      "required": ["basis", "datatype", "bit_significance", "clbit_order"],
      "properties": {
        "basis": {"enum": ["Z", "X", "Y"]},
        "datatype": {"enum": ["AS_INT", "AS_BOOL", "AS_PHASE", "AS_SPIN", "AS_FIXED"]},
        "bit_significance": {"enum": ["LSB_0", "MSB_0"]},
        "clbit_order": {"type": "array", "minItems": 1, "items": {"type": "string", "pattern": "^[A-Za-z_][A-Za-z0-9_]*\\[[0-9]+\\]$"}}
      },
      "additionalProperties": false
    }
  }
}`

// CTX is ctx.schema.json (paper Listings 4 and 5).
const CTX = `{
  "$id": "ctx.schema.json",
  "type": "object",
  "properties": {
    "$schema": {"const": "ctx.schema.json"},
    "exec": {
      "type": "object",
      "required": ["engine"],
      "properties": {
        "engine": {"type": "string", "minLength": 1},
        "samples": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "target": {
          "type": "object",
          "properties": {
            "basis_gates": {"type": "array", "items": {"type": "string"}},
            "coupling_map": {"type": "array", "items": {"$ref": "#/$defs/pair"}},
            "num_qubits": {"type": "integer", "minimum": 1}
          },
          "additionalProperties": false
        },
        "options": {"type": "object"}
      },
      "additionalProperties": false
    },
    "qec": {
      "type": "object",
      "required": ["code_family", "distance"],
      "properties": {
        "code_family": {"enum": ["surface", "repetition"]},
        "distance": {"type": "integer", "minimum": 1},
        "allocator": {"type": "string"},
        "logical_gate_set": {"type": "array", "items": {"type": "string"}},
        "decoder": {"enum": ["majority", "mwpm_lite"]},
        "phys_error_rate": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "rounds": {"type": "integer", "minimum": 0}
      },
      "additionalProperties": false
    },
    "anneal": {
      "type": "object",
      "required": ["num_reads"],
      "properties": {
        "num_reads": {"type": "integer", "minimum": 1},
        "sweeps": {"type": "integer", "minimum": 0, "maximum": 1000000},
        "beta_min": {"type": "number", "minimum": 0},
        "beta_max": {"type": "number", "minimum": 0},
        "schedule": {"enum": ["geometric", "linear"]},
        "embed": {"type": "boolean"},
        "topology": {"type": "string"},
        "unit_cells": {"type": "integer", "minimum": 1},
        "chain_strength": {"type": "number", "minimum": 0}
      },
      "additionalProperties": false
    },
    "comm": {
      "type": "object",
      "required": ["qpus", "qubits_per_qpu"],
      "properties": {
        "qpus": {"type": "integer", "minimum": 1},
        "qubits_per_qpu": {"type": "integer", "minimum": 1},
        "allow_teleport": {"type": "boolean"},
        "partition": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "epr_buffer": {"type": "integer", "minimum": 0}
      },
      "additionalProperties": false
    },
    "pulse": {
      "type": "object",
      "properties": {
        "dt_ns": {"type": "number", "minimum": 0},
        "single_gate_ns": {"type": "number", "minimum": 0},
        "two_gate_ns": {"type": "number", "minimum": 0},
        "calibrations": {"type": "object", "additionalProperties": {"type": "number", "minimum": 0}}
      },
      "additionalProperties": false
    },
    "sweep": {
      "type": "object",
      "required": ["params", "points"],
      "properties": {
        "params": {"type": "array", "minItems": 1, "items": {"type": "string", "minLength": 1}},
        "points": {"type": "array", "minItems": 1, "items": {"type": "array", "items": {"type": "number"}}}
      },
      "additionalProperties": false
    },
    "extensions": {"type": "object"}
  },
  "additionalProperties": false,
  "$defs": {
    "pair": {"type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "integer", "minimum": 0}}
  }
}`

// Job is job.schema.json: the submission bundle produced by the packaging
// step (paper §4.4: "a packaging utility to finally combine the quantum
// data type, operators, and optional context into a submission bundle
// (job.json)").
const Job = `{
  "$id": "job.schema.json",
  "type": "object",
  "required": ["qdts", "operators"],
  "properties": {
    "$schema": {"const": "job.schema.json"},
    "qdts": {"type": "array", "minItems": 1, "items": {"type": "object"}},
    "operators": {"type": "array", "minItems": 1, "items": {"type": "object"}},
    "context": {"type": "object"},
    "provenance": {
      "type": "object",
      "properties": {
        "created_by": {"type": "string"},
        "version": {"type": "string"},
        "intent_fingerprint": {"type": "string"}
      },
      "additionalProperties": false
    }
  },
  "additionalProperties": false
}`

var compiled = map[string]*jsonschema.Schema{
	"qdt-core.schema.json": jsonschema.MustCompile([]byte(QDT)),
	"qod.schema.json":      jsonschema.MustCompile([]byte(QOD)),
	"ctx.schema.json":      jsonschema.MustCompile([]byte(CTX)),
	"job.schema.json":      jsonschema.MustCompile([]byte(Job)),
}

// Names returns the known schema names in sorted order.
func Names() []string {
	names := make([]string, 0, len(compiled))
	for n := range compiled {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the compiled schema by name.
func Get(name string) (*jsonschema.Schema, error) {
	s, ok := compiled[name]
	if !ok {
		return nil, fmt.Errorf("schemas: unknown schema %q", name)
	}
	return s, nil
}

// Validate validates a raw JSON document against the named schema.
func Validate(name string, doc []byte) error {
	s, err := Get(name)
	if err != nil {
		return err
	}
	return s.ValidateBytes(doc)
}
