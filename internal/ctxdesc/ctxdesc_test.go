package ctxdesc

import (
	"encoding/json"
	"strings"
	"testing"
)

// listing4 is the paper's Listing 4 verbatim.
const listing4 = `{
	"$schema": "ctx.schema.json",
	"exec": {
		"engine": "gate.aer_simulator",
		"samples": 4096,
		"seed": 42,
		"target": {
			"basis_gates": ["sx", "rz", "cx"],
			"coupling_map": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9]]
		},
		"options": {"optimization_level": 2}
	}
}`

// listing5 is the paper's Listing 5 QEC block (with the elided exec filled
// in and extensions made concrete).
const listing5 = `{
	"$schema": "ctx.schema.json",
	"exec": {"engine": "gate.statevector", "samples": 1024, "seed": 7},
	"qec": {
		"code_family": "surface",
		"distance": 7,
		"allocator": "auto",
		"logical_gate_set": ["H", "S", "CNOT", "T", "MEASURE_Z"]
	},
	"extensions": {"vendor": {"note": "opaque"}}
}`

func TestListing4Parses(t *testing.T) {
	c, err := FromJSON([]byte(listing4))
	if err != nil {
		t.Fatalf("Listing 4 rejected: %v", err)
	}
	if c.Exec.Engine != "gate.aer_simulator" || c.Exec.Samples != 4096 || c.Exec.Seed != 42 {
		t.Errorf("exec parsed incorrectly: %+v", c.Exec)
	}
	if len(c.Exec.Target.BasisGates) != 3 || c.Exec.Target.BasisGates[0] != "sx" {
		t.Errorf("basis gates parsed incorrectly: %v", c.Exec.Target.BasisGates)
	}
	if len(c.Exec.Target.CouplingMap) != 9 || c.Exec.Target.CouplingMap[8] != [2]int{8, 9} {
		t.Errorf("coupling map parsed incorrectly: %v", c.Exec.Target.CouplingMap)
	}
	if c.OptimizationLevel() != 2 {
		t.Errorf("optimization level = %d, want 2", c.OptimizationLevel())
	}
	if c.EngineFamily() != "gate" {
		t.Errorf("engine family = %q, want gate", c.EngineFamily())
	}
}

func TestListing5Parses(t *testing.T) {
	c, err := FromJSON([]byte(listing5))
	if err != nil {
		t.Fatalf("Listing 5 rejected: %v", err)
	}
	if c.QEC.CodeFamily != "surface" || c.QEC.Distance != 7 || c.QEC.Allocator != "auto" {
		t.Errorf("qec parsed incorrectly: %+v", c.QEC)
	}
	if len(c.QEC.LogicalGateSet) != 5 {
		t.Errorf("logical gate set = %v", c.QEC.LogicalGateSet)
	}
	if _, ok := c.Extensions["vendor"]; !ok {
		t.Error("extensions not preserved")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty engine", `{"$schema":"ctx.schema.json","exec":{"engine":""}}`, "engine is empty"},
		{"negative samples", `{"$schema":"ctx.schema.json","exec":{"engine":"g","samples":-1}}`, "negative"},
		{"self loop", `{"$schema":"ctx.schema.json","exec":{"engine":"g","target":{"coupling_map":[[1,1]]}}}`, "self-loop"},
		{"coupling beyond width", `{"$schema":"ctx.schema.json","exec":{"engine":"g","target":{"num_qubits":2,"coupling_map":[[0,2]]}}}`, "exceeds num_qubits"},
		{"bad code family", `{"$schema":"ctx.schema.json","qec":{"code_family":"parity","distance":3}}`, "code_family"},
		{"even distance", `{"$schema":"ctx.schema.json","qec":{"code_family":"surface","distance":4}}`, "odd"},
		{"zero distance", `{"$schema":"ctx.schema.json","qec":{"code_family":"surface","distance":0}}`, "distance"},
		{"bad error rate", `{"$schema":"ctx.schema.json","qec":{"code_family":"surface","distance":3,"phys_error_rate":1.5}}`, "phys_error_rate"},
		{"bad decoder", `{"$schema":"ctx.schema.json","qec":{"code_family":"surface","distance":3,"decoder":"magic"}}`, "decoder"},
		{"zero reads", `{"$schema":"ctx.schema.json","anneal":{"num_reads":0}}`, "num_reads"},
		{"negative sweeps", `{"$schema":"ctx.schema.json","anneal":{"num_reads":1,"sweeps":-1}}`, "sweeps"},
		{"huge sweeps", `{"$schema":"ctx.schema.json","anneal":{"num_reads":1,"sweeps":1000000000000000}}`, "exceeds 1000000"},
		{"huge reads", `{"$schema":"ctx.schema.json","anneal":{"num_reads":1000000000000}}`, "anneal.num_reads 1000000000000 exceeds 1048576"},
		{"huge samples", `{"$schema":"ctx.schema.json","exec":{"engine":"g","samples":1000000000000}}`, "exec.samples 1000000000000 exceeds 1048576"},
		{"beta order", `{"$schema":"ctx.schema.json","anneal":{"num_reads":1,"beta_min":5,"beta_max":1}}`, "beta"},
		{"bad schedule", `{"$schema":"ctx.schema.json","anneal":{"num_reads":1,"schedule":"exponential"}}`, "schedule"},
		{"zero qpus", `{"$schema":"ctx.schema.json","comm":{"qpus":0,"qubits_per_qpu":4}}`, "qpus"},
		{"bad partition", `{"$schema":"ctx.schema.json","comm":{"qpus":2,"qubits_per_qpu":4,"partition":[0,2]}}`, "partition"},
		{"negative pulse", `{"$schema":"ctx.schema.json","pulse":{"dt_ns":-1}}`, "pulse"},
		{"wrong schema", `{"$schema":"wrong.json"}`, "$schema"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := FromJSON([]byte(c.doc))
			if err == nil {
				t.Fatal("invalid context accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestConstructors(t *testing.T) {
	g := NewGate("gate.statevector", 4096, 42)
	if err := g.Validate(); err != nil {
		t.Errorf("NewGate invalid: %v", err)
	}
	a := NewAnneal("anneal.sa", 1000, 7)
	if err := a.Validate(); err != nil {
		t.Errorf("NewAnneal invalid: %v", err)
	}
	if a.Anneal.NumReads != 1000 {
		t.Errorf("num_reads = %d", a.Anneal.NumReads)
	}
}

func TestOptimizationLevelDefaults(t *testing.T) {
	if lvl := New().OptimizationLevel(); lvl != 1 {
		t.Errorf("default optimization level = %d, want 1", lvl)
	}
	c := NewGate("g", 1, 0)
	c.Exec.Options = map[string]any{"optimization_level": 0}
	if lvl := c.OptimizationLevel(); lvl != 0 {
		t.Errorf("explicit level 0 read as %d", lvl)
	}
	c.Exec.Options["optimization_level"] = 3
	if lvl := c.OptimizationLevel(); lvl != 3 {
		t.Errorf("int level read as %d", lvl)
	}
}

func TestEngineFamilyNoDotAndNil(t *testing.T) {
	c := NewGate("standalone", 1, 0)
	if f := c.EngineFamily(); f != "standalone" {
		t.Errorf("family = %q", f)
	}
	if f := New().EngineFamily(); f != "" {
		t.Errorf("nil-exec family = %q", f)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c, _ := FromJSON([]byte(listing4))
	cp := c.Clone()
	cp.Exec.Target.CouplingMap[0] = [2]int{7, 8}
	cp.Exec.Options["optimization_level"] = 0
	if c.Exec.Target.CouplingMap[0] != [2]int{0, 1} {
		t.Error("Clone shares coupling map")
	}
	if c.OptimizationLevel() != 2 {
		t.Error("Clone shares options map")
	}
}

func TestMerge(t *testing.T) {
	base, _ := FromJSON([]byte(listing4))
	override := New()
	override.QEC = &QEC{CodeFamily: "surface", Distance: 3}
	override.Extensions = map[string]any{"trace": true}
	merged := base.Merge(override)
	if merged.Exec == nil || merged.Exec.Engine != "gate.aer_simulator" {
		t.Error("Merge dropped base exec")
	}
	if merged.QEC == nil || merged.QEC.Distance != 3 {
		t.Error("Merge dropped override qec")
	}
	if merged.Extensions["trace"] != true {
		t.Error("Merge dropped extensions")
	}
	// Base untouched.
	if base.QEC != nil {
		t.Error("Merge mutated base")
	}
	// Merge with nil is a clone.
	alone := base.Merge(nil)
	if alone.Exec.Samples != 4096 {
		t.Error("Merge(nil) lost data")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c, _ := FromJSON([]byte(listing4))
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(b)
	if err != nil {
		t.Fatalf("re-marshaled context rejected: %v", err)
	}
	if back.Exec.Samples != 4096 || back.Exec.Seed != 42 || len(back.Exec.Target.CouplingMap) != 9 {
		t.Errorf("round trip changed context: %+v", back.Exec)
	}
}

func TestMarshalDefaultsSchema(t *testing.T) {
	b, err := json.Marshal(&Context{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), SchemaName) {
		t.Errorf("marshal missing schema: %s", b)
	}
}
