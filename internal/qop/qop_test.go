package qop

import (
	"encoding/json"
	"strings"
	"testing"
)

// listing3 is the paper's Listing 3 verbatim (modulo whitespace).
const listing3 = `{
	"$schema": "qod.schema.json",
	"name": "QFT",
	"rep_kind": "QFT_TEMPLATE",
	"domain_qdt": "reg_phase",
	"codomain_qdt": "reg_phase",
	"params": {"approx_degree": 0, "do_swaps": true, "inverse": false},
	"cost_hint": {"twoq": 45, "depth": 100},
	"result_schema": {
		"basis": "Z",
		"datatype": "AS_PHASE",
		"bit_significance": "LSB_0",
		"clbit_order": [
			"reg_phase[0]","reg_phase[1]","reg_phase[2]","reg_phase[3]",
			"reg_phase[4]","reg_phase[5]","reg_phase[6]","reg_phase[7]",
			"reg_phase[8]","reg_phase[9]"
		]
	}
}`

func TestListing3Parses(t *testing.T) {
	op, err := FromJSON([]byte(listing3))
	if err != nil {
		t.Fatalf("Listing 3 rejected: %v", err)
	}
	if op.RepKind != QFTTemplate || op.DomainQDT != "reg_phase" || op.CodomainQDT != "reg_phase" {
		t.Errorf("Listing 3 parsed incorrectly: %+v", op)
	}
	if op.CostHint == nil || op.CostHint.TwoQ != 45 || op.CostHint.Depth != 100 {
		t.Errorf("cost hint = %+v, want twoq=45 depth=100", op.CostHint)
	}
	deg, err := op.ParamInt("approx_degree")
	if err != nil || deg != 0 {
		t.Errorf("approx_degree = %d, %v", deg, err)
	}
	swaps, err := op.ParamBool("do_swaps")
	if err != nil || !swaps {
		t.Errorf("do_swaps = %v, %v", swaps, err)
	}
	if err := op.Result.Validate("reg_phase", 10); err != nil {
		t.Errorf("Listing 3 result schema invalid: %v", err)
	}
}

func TestOperatorValidate(t *testing.T) {
	op := New("QFT", QFTTemplate, "reg")
	if err := op.Validate(); err != nil {
		t.Errorf("valid operator rejected: %v", err)
	}
	bad := New("", "NOT_A_KIND", "")
	bad.CodomainQDT = ""
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid operator accepted")
	}
	for _, want := range []string{"name is empty", "unknown rep_kind", "domain_qdt is empty", "codomain_qdt is empty"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
}

func TestParamAccessors(t *testing.T) {
	op := New("x", MixerRX, "r").SetParam("beta", 0.7).SetParam("n", 3).SetParam("flag", true)
	if f, err := op.ParamFloat("beta"); err != nil || f != 0.7 {
		t.Errorf("ParamFloat = %v, %v", f, err)
	}
	if n, err := op.ParamInt("n"); err != nil || n != 3 {
		t.Errorf("ParamInt = %v, %v", n, err)
	}
	if b, err := op.ParamBool("flag"); err != nil || !b {
		t.Errorf("ParamBool = %v, %v", b, err)
	}
	if _, err := op.ParamFloat("missing"); err == nil {
		t.Error("missing param accepted")
	}
	if _, err := op.ParamInt("beta"); err == nil {
		t.Error("non-integral float accepted as int")
	}
	if _, err := op.ParamBool("n"); err == nil {
		t.Error("number accepted as bool")
	}
	if f, err := op.ParamFloatDefault("missing", 1.5); err != nil || f != 1.5 {
		t.Errorf("ParamFloatDefault = %v, %v", f, err)
	}
	if b, err := op.ParamBoolDefault("missing", true); err != nil || !b {
		t.Errorf("ParamBoolDefault = %v, %v", b, err)
	}
	if _, err := op.ParamBoolDefault("n", true); err == nil {
		t.Error("present mistyped param not rejected by default accessor")
	}
}

func TestParamsAfterJSONRoundTrip(t *testing.T) {
	op := New("x", MixerRX, "r").SetParam("beta", 0.7).SetParam("layers", 2)
	b, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	// JSON numbers decode as float64; accessors must still work.
	if n, err := back.ParamInt("layers"); err != nil || n != 2 {
		t.Errorf("round-tripped ParamInt = %v, %v", n, err)
	}
	if f, err := back.ParamFloat("beta"); err != nil || f != 0.7 {
		t.Errorf("round-tripped ParamFloat = %v, %v", f, err)
	}
}

func TestCostHintAdd(t *testing.T) {
	a := CostHint{TwoQ: 10, OneQ: 5, Depth: 20, Ancilla: 2, CommVolume: 1, DurationNS: 100}
	b := CostHint{TwoQ: 3, OneQ: 7, Depth: 4, Ancilla: 5, DurationNS: 50}
	sum := a.Add(b)
	if sum.TwoQ != 13 || sum.OneQ != 12 || sum.Depth != 24 || sum.Ancilla != 5 ||
		sum.CommVolume != 1 || sum.DurationNS != 150 {
		t.Errorf("Add = %+v", sum)
	}
}

func TestParseBitRef(t *testing.T) {
	reg, idx, err := ParseBitRef("reg_phase[7]")
	if err != nil || reg != "reg_phase" || idx != 7 {
		t.Errorf("ParseBitRef = %q, %d, %v", reg, idx, err)
	}
	if reg, idx, err := ParseBitRef("_r9[010]"); err != nil || reg != "_r9" || idx != 10 {
		t.Errorf("ParseBitRef = %q, %d, %v", reg, idx, err)
	}
	for _, bad := range []string{"", "reg", "[3]", "reg[x]", "reg[3", "reg3]",
		"reg[ 0]", "reg[-1]", "reg[+1]", "reg[]", "reg[0]]", "re g[0]", "1reg[0]", "reg[99999999999999999999]"} {
		if _, _, err := ParseBitRef(bad); err == nil {
			t.Errorf("ParseBitRef(%q) accepted", bad)
		}
	}
}

func TestResultSchemaValidate(t *testing.T) {
	rs := DefaultResultSchema("r", 3, "AS_BOOL", "LSB_0")
	if err := rs.Validate("r", 3); err != nil {
		t.Errorf("default schema invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ResultSchema)
	}{
		{"bad basis", func(r *ResultSchema) { r.Basis = "W" }},
		{"bad datatype", func(r *ResultSchema) { r.Datatype = "AS_JPEG" }},
		{"bad significance", func(r *ResultSchema) { r.BitSignificance = "MIDDLE" }},
		{"wrong length", func(r *ResultSchema) { r.ClbitOrder = r.ClbitOrder[:2] }},
		{"wrong register", func(r *ResultSchema) { r.ClbitOrder[0] = "other[0]" }},
		{"out of range", func(r *ResultSchema) { r.ClbitOrder[0] = "r[9]" }},
		{"duplicate", func(r *ResultSchema) { r.ClbitOrder[1] = "r[0]" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs := DefaultResultSchema("r", 3, "AS_BOOL", "LSB_0")
			c.mutate(rs)
			if err := rs.Validate("r", 3); err == nil {
				t.Error("invalid schema accepted")
			}
		})
	}
}

func TestInvert(t *testing.T) {
	qft := New("QFT", QFTTemplate, "r").SetParam("inverse", false)
	inv, err := qft.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := inv.ParamBool("inverse"); !got {
		t.Error("QFT inversion did not flip inverse flag")
	}
	// Original untouched.
	if got, _ := qft.ParamBool("inverse"); got {
		t.Error("Invert mutated the original descriptor")
	}

	cost := New("cost", IsingCostPhase, "r").SetParam("gamma", 0.4)
	invCost, err := cost.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := invCost.ParamFloat("gamma"); g != -0.4 {
		t.Errorf("inverted gamma = %v, want -0.4", g)
	}

	meas := New("m", Measurement, "r")
	if _, err := meas.Invert(); err == nil {
		t.Error("MEASUREMENT inversion accepted")
	}
	unknown := New("p", IsingProblem, "r")
	if _, err := unknown.Invert(); err == nil {
		t.Error("ISING_PROBLEM inversion accepted (no rule)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	op := New("x", MixerRX, "r").SetParam("beta", 1.0)
	cp := op.Clone()
	cp.SetParam("beta", 2.0)
	cp.Name = "y"
	if f, _ := op.ParamFloat("beta"); f != 1.0 {
		t.Error("Clone shares params map")
	}
	if op.Name != "x" {
		t.Error("Clone shares name")
	}
}

func TestMarshalDefaultsSchema(t *testing.T) {
	op := &Operator{Name: "x", RepKind: PrepUniform, DomainQDT: "r", CodomainQDT: "r"}
	b, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), SchemaName) {
		t.Errorf("marshal missing schema default: %s", b)
	}
}
