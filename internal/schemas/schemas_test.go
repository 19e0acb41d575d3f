package schemas

import (
	"encoding/json"
	"testing"

	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qop"
)

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v", names)
	}
	if names[0] != "ctx.schema.json" {
		t.Errorf("names not sorted: %v", names)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope.json"); err == nil {
		t.Error("unknown schema name accepted")
	}
	if err := Validate("nope.json", []byte(`{}`)); err == nil {
		t.Error("Validate with unknown schema accepted")
	}
}

func TestQDTSchemaAcceptsListing2(t *testing.T) {
	doc := `{
		"$schema": "qdt-core.schema.json",
		"id": "reg_phase", "name": "phase", "width": 10,
		"encoding_kind": "PHASE_REGISTER", "bit_order": "LSB_0",
		"measurement_semantics": "AS_PHASE", "phase_scale": "1/1024"}`
	if err := Validate("qdt-core.schema.json", []byte(doc)); err != nil {
		t.Errorf("Listing 2 rejected by schema: %v", err)
	}
}

func TestQDTSchemaRejects(t *testing.T) {
	bad := []string{
		`{"id":"x","width":0,"encoding_kind":"INT_REGISTER","bit_order":"LSB_0","measurement_semantics":"AS_INT"}`,
		`{"id":"x","width":4,"encoding_kind":"NOPE","bit_order":"LSB_0","measurement_semantics":"AS_INT"}`,
		`{"id":"x","width":4,"encoding_kind":"INT_REGISTER","bit_order":"LSB_0","measurement_semantics":"AS_INT","extra":1}`,
		`{"width":4,"encoding_kind":"INT_REGISTER","bit_order":"LSB_0","measurement_semantics":"AS_INT"}`,
		`{"id":"x","width":4,"encoding_kind":"PHASE_REGISTER","bit_order":"LSB_0","measurement_semantics":"AS_PHASE","phase_scale":"a/b"}`,
	}
	for i, doc := range bad {
		if err := Validate("qdt-core.schema.json", []byte(doc)); err == nil {
			t.Errorf("bad doc %d accepted: %s", i, doc)
		}
	}
}

func TestQDTStructsConformToSchema(t *testing.T) {
	// Everything the qdt constructors produce must pass the embedded
	// schema — keeps struct and schema in lockstep.
	for _, d := range []*qdt.DataType{
		qdt.NewPhaseRegister("reg_phase", "phase", 10),
		qdt.NewIsingVars("ising_vars", "s", 4),
		qdt.New("n", "n", 8, qdt.IntRegister, qdt.AsInt),
	} {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate("qdt-core.schema.json", b); err != nil {
			t.Errorf("constructor output fails schema: %v\n%s", err, b)
		}
	}
}

func TestQODStructsConformToSchema(t *testing.T) {
	op := qop.New("QFT", qop.QFTTemplate, "reg_phase").
		SetParam("approx_degree", 0).SetParam("do_swaps", true).SetParam("inverse", false)
	op.CostHint = &qop.CostHint{TwoQ: 45, Depth: 100}
	op.Result = qop.DefaultResultSchema("reg_phase", 10, "AS_PHASE", "LSB_0")
	b, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate("qod.schema.json", b); err != nil {
		t.Errorf("operator fails schema: %v\n%s", err, b)
	}
}

func TestQODSchemaRejects(t *testing.T) {
	bad := []string{
		`{"name":"x","rep_kind":"lower_case","domain_qdt":"r","codomain_qdt":"r"}`,
		`{"rep_kind":"QFT_TEMPLATE","domain_qdt":"r","codomain_qdt":"r"}`,
		`{"name":"x","rep_kind":"QFT_TEMPLATE","domain_qdt":"r","codomain_qdt":"r","cost_hint":{"twoq":-1}}`,
		`{"name":"x","rep_kind":"QFT_TEMPLATE","domain_qdt":"r","codomain_qdt":"r","result_schema":{"basis":"Z","datatype":"AS_INT","bit_significance":"LSB_0","clbit_order":["bad ref"]}}`,
	}
	for i, doc := range bad {
		if err := Validate("qod.schema.json", []byte(doc)); err == nil {
			t.Errorf("bad operator %d accepted", i)
		}
	}
}

func TestCTXStructsConformToSchema(t *testing.T) {
	c := ctxdesc.NewGate("gate.statevector", 4096, 42)
	c.Exec.Target = &ctxdesc.Target{
		BasisGates:  []string{"sx", "rz", "cx"},
		CouplingMap: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	c.Exec.Options = map[string]any{"optimization_level": 2}
	c.QEC = &ctxdesc.QEC{CodeFamily: "surface", Distance: 7, Allocator: "auto",
		LogicalGateSet: []string{"H", "S", "CNOT", "T", "MEASURE_Z"}}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate("ctx.schema.json", b); err != nil {
		t.Errorf("context fails schema: %v\n%s", err, b)
	}

	// The schema's bounds on anneal.sweeps, anneal.num_reads and
	// exec.samples are the ones Validate enforces.
	for _, bound := range []struct {
		name string
		max  int
		set  func(c *ctxdesc.Context, v int)
	}{
		{"sweeps", ctxdesc.MaxAnnealSweeps, func(c *ctxdesc.Context, v int) { c.Anneal.Sweeps = v }},
		{"num_reads", ctxdesc.MaxAnnealReads, func(c *ctxdesc.Context, v int) { c.Anneal.NumReads = v }},
		{"samples", ctxdesc.MaxSamples, func(c *ctxdesc.Context, v int) { c.Exec.Samples = v }},
	} {
		for v, ok := range map[int]bool{bound.max: true, bound.max + 1: false} {
			a := ctxdesc.NewAnneal("anneal.sa", 16, 1)
			bound.set(a, v)
			b, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate("ctx.schema.json", b); (err == nil) != ok {
				t.Errorf("%s %d: schema error %v, want accepted = %v", bound.name, v, err, ok)
			}
			if err := a.Validate(); (err == nil) != ok {
				t.Errorf("%s %d: Validate error %v, want accepted = %v", bound.name, v, err, ok)
			}
		}
	}
}

// TestSchemaBoundsMatchGoConstants: every bound a schema shares with a Go
// constant is read from the schema text and compared with the constant,
// so neither copy drifts alone.
func TestSchemaBoundsMatchGoConstants(t *testing.T) {
	decode := func(src string) map[string]any {
		var doc map[string]any
		if err := json.Unmarshal([]byte(src), &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	ctx, qdtDoc := decode(CTX), decode(QDT)
	// at walks "properties" down the path to one property's schema.
	at := func(doc map[string]any, path ...string) map[string]any {
		for _, p := range path {
			doc, _ = doc["properties"].(map[string]any)[p].(map[string]any)
		}
		return doc
	}
	for _, c := range []struct {
		name string
		got  any
		want any
	}{
		{"exec.samples maximum", at(ctx, "exec", "samples")["maximum"], float64(ctxdesc.MaxSamples)},
		{"anneal.num_reads maximum", at(ctx, "anneal", "num_reads")["maximum"], float64(ctxdesc.MaxAnnealReads)},
		{"anneal.sweeps maximum", at(ctx, "anneal", "sweeps")["maximum"], float64(ctxdesc.MaxAnnealSweeps)},
		{"width maximum", at(qdtDoc, "width")["maximum"], float64(qdt.MaxWidth)},
		{"phase_scale pattern", at(qdtDoc, "phase_scale")["pattern"], qdt.PhaseScalePattern},
	} {
		if c.got != c.want {
			t.Errorf("%s: schema says %v, Go says %v", c.name, c.got, c.want)
		}
	}
}

func TestCTXSchemaRejects(t *testing.T) {
	bad := []string{
		`{"exec":{}}`,
		`{"exec":{"engine":"g","samples":-1}}`,
		`{"exec":{"engine":"g","target":{"coupling_map":[[0]]}}}`,
		`{"qec":{"code_family":"surface"}}`,
		`{"anneal":{"num_reads":0}}`,
		`{"anneal":{"num_reads":10,"schedule":"weird"}}`,
		`{"comm":{"qpus":2}}`,
		`{"bogus_top_level":1}`,
	}
	for i, doc := range bad {
		if err := Validate("ctx.schema.json", []byte(doc)); err == nil {
			t.Errorf("bad context %d accepted: %s", i, doc)
		}
	}
}

func TestJobSchema(t *testing.T) {
	good := `{"$schema":"job.schema.json","qdts":[{"id":"r"}],"operators":[{"name":"x"}],
		"context":{"exec":{"engine":"g"}},
		"provenance":{"created_by":"algolib","version":"1","intent_fingerprint":"abc"}}`
	if err := Validate("job.schema.json", []byte(good)); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	for i, bad := range []string{
		`{"operators":[{}]}`,
		`{"qdts":[],"operators":[{}]}`,
		`{"qdts":[{}],"operators":[{}],"provenance":{"hacker":true}}`,
	} {
		if err := Validate("job.schema.json", []byte(bad)); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
}
