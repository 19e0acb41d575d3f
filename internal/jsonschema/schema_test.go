package jsonschema

import (
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src string) *Schema {
	t.Helper()
	s, err := Compile([]byte(src))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return s
}

func TestTypeValidation(t *testing.T) {
	s := mustCompile(t, `{"type":"object","properties":{
		"name":{"type":"string"},
		"width":{"type":"integer"},
		"scale":{"type":"number"},
		"on":{"type":"boolean"},
		"tags":{"type":"array"}}}`)

	if err := s.ValidateBytes([]byte(`{"name":"x","width":4,"scale":1.5,"on":true,"tags":[]}`)); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
	if err := s.ValidateBytes([]byte(`{"width":"four"}`)); err == nil {
		t.Error("string-for-integer accepted")
	}
	if err := s.ValidateBytes([]byte(`{"width":4.5}`)); err == nil {
		t.Error("non-integral number accepted as integer")
	}
	// integer satisfies number
	if err := s.ValidateBytes([]byte(`{"scale":2}`)); err != nil {
		t.Errorf("integer rejected where number expected: %v", err)
	}
}

func TestRequired(t *testing.T) {
	s := mustCompile(t, `{"type":"object","required":["id","width"]}`)
	err := s.ValidateBytes([]byte(`{"id":"a"}`))
	if err == nil {
		t.Fatal("missing required property accepted")
	}
	if !strings.Contains(err.Error(), "width") {
		t.Errorf("error does not name the missing property: %v", err)
	}
}

func TestEnumAndConst(t *testing.T) {
	s := mustCompile(t, `{"type":"object","properties":{
		"bit_order":{"enum":["LSB_0","MSB_0"]},
		"version":{"const":1}}}`)
	if err := s.ValidateBytes([]byte(`{"bit_order":"LSB_0","version":1}`)); err != nil {
		t.Errorf("valid enum/const rejected: %v", err)
	}
	if err := s.ValidateBytes([]byte(`{"bit_order":"BIG"}`)); err == nil {
		t.Error("out-of-enum value accepted")
	}
	if err := s.ValidateBytes([]byte(`{"version":2}`)); err == nil {
		t.Error("non-const value accepted")
	}
}

func TestNumericBounds(t *testing.T) {
	s := mustCompile(t, `{"type":"object","properties":{
		"width":{"type":"integer","minimum":1,"maximum":64},
		"p":{"type":"number","exclusiveMinimum":0,"exclusiveMaximum":1},
		"even":{"type":"integer","multipleOf":2}}}`)
	cases := []struct {
		doc string
		ok  bool
	}{
		{`{"width":1}`, true},
		{`{"width":64}`, true},
		{`{"width":0}`, false},
		{`{"width":65}`, false},
		{`{"p":0.5}`, true},
		{`{"p":0}`, false},
		{`{"p":1}`, false},
		{`{"even":4}`, true},
		{`{"even":3}`, false},
	}
	for _, c := range cases {
		err := s.ValidateBytes([]byte(c.doc))
		if (err == nil) != c.ok {
			t.Errorf("doc %s: ok=%v, err=%v", c.doc, c.ok, err)
		}
	}
}

func TestStringConstraints(t *testing.T) {
	s := mustCompile(t, `{"type":"string","minLength":2,"maxLength":5,"pattern":"^[a-z_]+$"}`)
	if err := s.ValidateBytes([]byte(`"ab_c"`)); err != nil {
		t.Errorf("valid string rejected: %v", err)
	}
	for _, bad := range []string{`"a"`, `"toolongvalue"`, `"ABC"`} {
		if err := s.ValidateBytes([]byte(bad)); err == nil {
			t.Errorf("invalid string %s accepted", bad)
		}
	}
}

func TestBadPatternRejectedAtCompile(t *testing.T) {
	if _, err := Compile([]byte(`{"pattern":"["}`)); err == nil {
		t.Error("invalid regexp compiled successfully")
	}
}

func TestArrayConstraints(t *testing.T) {
	s := mustCompile(t, `{"type":"array","minItems":1,"maxItems":3,
		"items":{"type":"integer","minimum":0},"uniqueItems":true}`)
	if err := s.ValidateBytes([]byte(`[1,2,3]`)); err != nil {
		t.Errorf("valid array rejected: %v", err)
	}
	for _, bad := range []string{`[]`, `[1,2,3,4]`, `[-1]`, `[1,1]`, `["x"]`} {
		if err := s.ValidateBytes([]byte(bad)); err == nil {
			t.Errorf("invalid array %s accepted", bad)
		}
	}
}

func TestNestedObjects(t *testing.T) {
	s := mustCompile(t, `{"type":"object","properties":{
		"exec":{"type":"object","required":["engine"],"properties":{
			"engine":{"type":"string"},
			"samples":{"type":"integer","minimum":1}}}}}`)
	if err := s.ValidateBytes([]byte(`{"exec":{"engine":"gate.statevector","samples":4096}}`)); err != nil {
		t.Errorf("valid nested doc rejected: %v", err)
	}
	err := s.ValidateBytes([]byte(`{"exec":{"samples":0}}`))
	if err == nil {
		t.Fatal("invalid nested doc accepted")
	}
	// Both violations should be reported.
	msg := err.Error()
	if !strings.Contains(msg, "engine") || !strings.Contains(msg, "minimum") {
		t.Errorf("expected both nested violations, got: %v", msg)
	}
}

func TestAdditionalPropertiesFalse(t *testing.T) {
	s := mustCompile(t, `{"type":"object","properties":{"a":{}},"additionalProperties":false}`)
	if err := s.ValidateBytes([]byte(`{"a":1}`)); err != nil {
		t.Errorf("declared property rejected: %v", err)
	}
	if err := s.ValidateBytes([]byte(`{"b":1}`)); err == nil {
		t.Error("undeclared property accepted with additionalProperties:false")
	}
}

func TestAdditionalPropertiesSchema(t *testing.T) {
	s := mustCompile(t, `{"type":"object","properties":{"a":{"type":"string"}},
		"additionalProperties":{"type":"integer"}}`)
	if err := s.ValidateBytes([]byte(`{"a":"x","extra":3}`)); err != nil {
		t.Errorf("conforming extra property rejected: %v", err)
	}
	if err := s.ValidateBytes([]byte(`{"extra":"not-int"}`)); err == nil {
		t.Error("non-conforming extra property accepted")
	}
}

func TestRefIntoDefs(t *testing.T) {
	s := mustCompile(t, `{
		"$defs":{"coupling":{"type":"array","items":{"type":"integer"},"minItems":2,"maxItems":2}},
		"type":"object",
		"properties":{"coupling_map":{"type":"array","items":{"$ref":"#/$defs/coupling"}}}}`)
	if err := s.ValidateBytes([]byte(`{"coupling_map":[[0,1],[1,2]]}`)); err != nil {
		t.Errorf("valid $ref doc rejected: %v", err)
	}
	if err := s.ValidateBytes([]byte(`{"coupling_map":[[0]]}`)); err == nil {
		t.Error("short coupling pair accepted")
	}
}

func TestUnresolvableRef(t *testing.T) {
	s := mustCompile(t, `{"$ref":"#/$defs/missing"}`)
	if err := s.Validate(map[string]any{}); err == nil {
		t.Error("unresolvable $ref did not produce an error")
	}
}

func TestCombinators(t *testing.T) {
	anyOf := mustCompile(t, `{"anyOf":[{"type":"string"},{"type":"integer"}]}`)
	if err := anyOf.ValidateBytes([]byte(`"x"`)); err != nil {
		t.Errorf("anyOf string rejected: %v", err)
	}
	if err := anyOf.ValidateBytes([]byte(`3`)); err != nil {
		t.Errorf("anyOf integer rejected: %v", err)
	}
	if err := anyOf.ValidateBytes([]byte(`true`)); err == nil {
		t.Error("anyOf accepted non-alternative")
	}

	oneOf := mustCompile(t, `{"oneOf":[{"type":"number","minimum":0},{"type":"number","maximum":0}]}`)
	if err := oneOf.ValidateBytes([]byte(`5`)); err != nil {
		t.Errorf("oneOf single match rejected: %v", err)
	}
	if err := oneOf.ValidateBytes([]byte(`0`)); err == nil {
		t.Error("oneOf double match accepted")
	}

	not := mustCompile(t, `{"not":{"type":"null"}}`)
	if err := not.ValidateBytes([]byte(`null`)); err == nil {
		t.Error("not-schema accepted forbidden value")
	}
	if err := not.ValidateBytes([]byte(`1`)); err != nil {
		t.Errorf("not-schema rejected allowed value: %v", err)
	}

	allOf := mustCompile(t, `{"allOf":[{"type":"integer"},{"minimum":3}]}`)
	if err := allOf.ValidateBytes([]byte(`4`)); err != nil {
		t.Errorf("allOf valid value rejected: %v", err)
	}
	if err := allOf.ValidateBytes([]byte(`2`)); err == nil {
		t.Error("allOf invalid value accepted")
	}
}

func TestTypeUnion(t *testing.T) {
	s := mustCompile(t, `{"type":["string","null"]}`)
	if err := s.ValidateBytes([]byte(`"x"`)); err != nil {
		t.Errorf("union string rejected: %v", err)
	}
	if err := s.ValidateBytes([]byte(`null`)); err != nil {
		t.Errorf("union null rejected: %v", err)
	}
	if err := s.ValidateBytes([]byte(`5`)); err == nil {
		t.Error("union accepted excluded type")
	}
}

func TestMalformedDocument(t *testing.T) {
	s := mustCompile(t, `{"type":"object"}`)
	if err := s.ValidateBytes([]byte(`{oops`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestErrorPathsAreInformative(t *testing.T) {
	s := mustCompile(t, `{"type":"object","properties":{
		"params":{"type":"object","properties":{
			"angles":{"type":"array","items":{"type":"number"}}}}}}`)
	err := s.ValidateBytes([]byte(`{"params":{"angles":[1.0,"bad"]}}`))
	if err == nil {
		t.Fatal("invalid doc accepted")
	}
	if !strings.Contains(err.Error(), "$.params.angles[1]") {
		t.Errorf("error path not informative: %v", err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic on bad schema")
		}
	}()
	MustCompile([]byte(`{`))
}

// TestErrorOrderIsDeterministic: violations under one object are reported
// in property-name order, whatever order the maps iterate in.
func TestErrorOrderIsDeterministic(t *testing.T) {
	s := mustCompile(t, `{"properties":{"b":{"type":"string"},"a":{"type":"string"},"c":{"type":"string"}},
		"additionalProperties":{"type":"string"}}`)
	want := `jsonschema: $.a: got integer, want string; $.b: got integer, want string; $.c: got integer, want string; $.x: got integer, want string; $.y: got integer, want string`
	for i := 0; i < 20; i++ {
		err := s.ValidateBytes([]byte(`{"y":5,"c":3,"a":1,"x":4,"b":2}`))
		if err == nil || err.Error() != want {
			t.Fatalf("got %v\nwant %s", err, want)
		}
	}
}

// TestNullSubschemaAllowsAll: a subschema written as null constrains
// nothing, and compiling or applying it does not fail.
func TestNullSubschemaAllowsAll(t *testing.T) {
	s := mustCompile(t, `{"properties":{"a":null},"allOf":[null],"anyOf":[null]}`)
	if err := s.ValidateBytes([]byte(`{"a":[1,"x"]}`)); err != nil {
		t.Errorf("null subschema refused a value: %v", err)
	}
}
