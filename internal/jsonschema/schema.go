// Package jsonschema implements a small JSON Schema validator covering the
// subset of the specification that the middle layer's descriptor schemas
// use: type, enum, const, required, properties, additionalProperties,
// items, array and string length bounds, numeric bounds, pattern,
// allOf/anyOf/oneOf/not, and local $ref into $defs.
//
// The paper's descriptors each name a schema in their "$schema" field
// (qdt-core.schema.json, qod.schema.json, ctx.schema.json). The typed
// validators enforce every rule those schemas state; this package checks
// artifacts from other tools against the schemas themselves.
package jsonschema

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Schema is a compiled JSON Schema document.
type Schema struct {
	root *node
}

// node is one (sub)schema. encoding/json decodes the keywords into its
// fields once, at Compile, so validating a value reads fields instead of
// looking keywords up.
type node struct {
	Ref                  string           `json:"$ref"`
	Defs                 map[string]*node `json:"$defs"`
	Type                 any              `json:"type"` // a name or a list of names
	Enum                 []any            `json:"enum"`
	Const                json.RawMessage  `json:"const"`
	Minimum              *float64         `json:"minimum"`
	Maximum              *float64         `json:"maximum"`
	ExclusiveMinimum     *float64         `json:"exclusiveMinimum"`
	ExclusiveMaximum     *float64         `json:"exclusiveMaximum"`
	MultipleOf           *float64         `json:"multipleOf"`
	MinLength            *float64         `json:"minLength"`
	MaxLength            *float64         `json:"maxLength"`
	Pattern              *string          `json:"pattern"`
	MinItems             *float64         `json:"minItems"`
	MaxItems             *float64         `json:"maxItems"`
	Items                *node            `json:"items"`
	UniqueItems          bool             `json:"uniqueItems"`
	Required             []string         `json:"required"`
	Properties           map[string]*node `json:"properties"`
	AdditionalProperties json.RawMessage  `json:"additionalProperties"`
	AllOf                []*node          `json:"allOf"`
	AnyOf                []*node          `json:"anyOf"`
	OneOf                []*node          `json:"oneOf"`
	Not                  *node            `json:"not"`

	target     *node // the resolved Ref; the node's other keywords are ignored
	constant   any
	re         *regexp.Regexp
	closed     bool  // additionalProperties: false
	additional *node // additionalProperties as a schema
	propNames  []string
}

// Compile parses and prepares a schema from its JSON source.
func Compile(src []byte) (*Schema, error) {
	var root node
	if err := json.Unmarshal(src, &root); err != nil {
		return nil, fmt.Errorf("jsonschema: parse: %w", err)
	}
	if err := root.prepare(&root); err != nil {
		return nil, err
	}
	return &Schema{root: &root}, nil
}

// MustCompile is Compile for schemas embedded in the binary; it panics on
// error, which can only indicate a programming mistake.
func MustCompile(src []byte) *Schema {
	s, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return s
}

// prepare finishes n and every schema under it: it resolves "$ref"s of
// the form "#/$defs/name" against root (a ref that does not resolve is
// reported for every value), compiles patterns and decodes the keywords
// that take more than one JSON type.
func (n *node) prepare(root *node) error {
	if name, ok := strings.CutPrefix(n.Ref, "#/$defs/"); ok {
		n.target = root.Defs[name]
	}
	if n.Pattern != nil {
		re, err := regexp.Compile(*n.Pattern)
		if err != nil {
			return fmt.Errorf("jsonschema: bad pattern %q: %w", *n.Pattern, err)
		}
		n.re = re
	}
	if n.Const != nil {
		if err := json.Unmarshal(n.Const, &n.constant); err != nil {
			return err
		}
	}
	if string(n.AdditionalProperties) == "false" {
		n.closed = true
	} else if len(n.AdditionalProperties) > 0 && n.AdditionalProperties[0] == '{' {
		if err := json.Unmarshal(n.AdditionalProperties, &n.additional); err != nil {
			return err
		}
	}
	for name := range n.Properties {
		n.propNames = append(n.propNames, name)
	}
	slices.Sort(n.propNames)
	children := slices.Concat(n.AllOf, n.AnyOf, n.OneOf, []*node{n.Items, n.Not, n.additional})
	for _, name := range n.propNames {
		children = append(children, n.Properties[name])
	}
	for _, d := range n.Defs {
		children = append(children, d)
	}
	for _, c := range children {
		if c == nil {
			continue
		}
		if err := c.prepare(root); err != nil {
			return err
		}
	}
	return nil
}

// ValidationError describes a single constraint violation.
type ValidationError struct {
	Path    string // JSON pointer-ish path to the offending value
	Message string
}

func (e ValidationError) Error() string { return e.Path + ": " + e.Message }

// Errors aggregates all violations found in one document.
type Errors []ValidationError

func (es Errors) Error() string {
	if len(es) == 0 {
		return "jsonschema: no errors"
	}
	msgs := make([]string, len(es))
	for i, e := range es {
		msgs[i] = e.Error()
	}
	return "jsonschema: " + strings.Join(msgs, "; ")
}

// ValidateBytes validates raw JSON against the schema.
func (s *Schema) ValidateBytes(doc []byte) error {
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		return fmt.Errorf("jsonschema: document parse: %w", err)
	}
	return s.Validate(v)
}

// Validate validates a decoded JSON value (as produced by encoding/json
// into any) against the schema. It returns nil or an Errors value listing
// every violation.
func (s *Schema) Validate(v any) error {
	var w walk
	s.root.validate(&w, v)
	if len(w.errs) == 0 {
		return nil
	}
	return w.errs
}

func jsonType(v any) string {
	switch t := v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case string:
		return "string"
	case float64:
		if t == math.Trunc(t) && !math.IsInf(t, 0) {
			return "integer"
		}
		return "number"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	default:
		return fmt.Sprintf("%T", v)
	}
}

func typeMatches(want string, v any) bool {
	got := jsonType(v)
	if want == got {
		return true
	}
	// An integer is also a number.
	return want == "number" && got == "integer"
}

// deepEqual compares two decoded values as JSON; encoding/json sorts map
// keys, so the comparison is order-insensitive.
func deepEqual(a, b any) bool {
	if as, ok := a.(string); ok {
		bs, ok := b.(string)
		return ok && as == bs
	}
	ab, errA := json.Marshal(a)
	bb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ab) == string(bb)
}

// walk is one validation: the violations found so far and the path from
// the document root to the value at hand, which becomes a string only for
// a violation.
type walk struct {
	errs Errors
	at   []step
}

// step is one edge of a path: a property, or an array index when index
// is not negative.
type step struct {
	name  string
	index int
}

func (w *walk) report(format string, args ...any) {
	var b strings.Builder
	b.WriteString("$")
	for _, s := range w.at {
		if s.index < 0 {
			b.WriteString("." + s.name)
		} else {
			b.WriteString("[" + strconv.Itoa(s.index) + "]")
		}
	}
	w.errs = append(w.errs, ValidationError{b.String(), fmt.Sprintf(format, args...)})
}

// bound reports x (shown after what) when "x op keyword m" holds for a
// keyword the schema sets.
func (w *walk) bound(what string, x float64, op, keyword string, m *float64) {
	if m == nil {
		return
	}
	var bad bool
	switch op {
	case "<":
		bad = x < *m
	case ">":
		bad = x > *m
	case "<=":
		bad = x <= *m
	default:
		bad = x >= *m
	}
	if bad {
		w.report("%s%v %s %s %v", what, x, op, keyword, *m)
	}
}

// child validates v, found under s, against n.
func (w *walk) child(n *node, v any, s step) {
	w.at = append(w.at, s)
	n.validate(w, v)
	w.at = w.at[:len(w.at)-1]
}

// accepts reports whether v passes n, recording nothing.
func (w *walk) accepts(n *node, v any) bool {
	mark := len(w.errs)
	n.validate(w, v)
	ok := len(w.errs) == mark
	w.errs = w.errs[:mark]
	return ok
}

// validate records every violation of n by v; a null schema allows all.
func (n *node) validate(w *walk, v any) {
	if n == nil {
		return
	}
	if n.Ref != "" {
		if n.target == nil {
			w.report("unresolvable $ref %q", n.Ref)
		} else {
			n.target.validate(w, v)
		}
		return
	}

	switch t := n.Type.(type) {
	case string:
		if !typeMatches(t, v) {
			w.report("got %s, want %s", jsonType(v), t)
			return
		}
	case []any:
		var names []string
		for _, alt := range t {
			if name, isStr := alt.(string); isStr {
				names = append(names, name)
			}
		}
		if !slices.ContainsFunc(names, func(name string) bool { return typeMatches(name, v) }) {
			w.report("got %s, want one of %v", jsonType(v), names)
			return
		}
	}

	if n.Enum != nil && !slices.ContainsFunc(n.Enum, func(e any) bool { return deepEqual(e, v) }) {
		w.report("value %v not in enum", compactJSON(v))
	}
	if n.Const != nil && !deepEqual(n.constant, v) {
		w.report("value %v != const %v", compactJSON(v), compactJSON(n.constant))
	}

	if f, isNum := v.(float64); isNum {
		w.bound("", f, "<", "minimum", n.Minimum)
		w.bound("", f, ">", "maximum", n.Maximum)
		w.bound("", f, "<=", "exclusiveMinimum", n.ExclusiveMinimum)
		w.bound("", f, ">=", "exclusiveMaximum", n.ExclusiveMaximum)
		if m := n.MultipleOf; m != nil && *m > 0 {
			if q := f / *m; math.Abs(q-math.Round(q)) > 1e-9 {
				w.report("%v is not a multiple of %v", f, *m)
			}
		}
	}

	if str, isStr := v.(string); isStr {
		count := float64(utf8.RuneCountInString(str))
		w.bound("string length ", count, "<", "minLength", n.MinLength)
		w.bound("string length ", count, ">", "maxLength", n.MaxLength)
		if n.re != nil && !n.re.MatchString(str) {
			w.report("string %q does not match pattern %q", str, *n.Pattern)
		}
	}

	if arr, isArr := v.([]any); isArr {
		w.bound("array length ", float64(len(arr)), "<", "minItems", n.MinItems)
		w.bound("array length ", float64(len(arr)), ">", "maxItems", n.MaxItems)
		if n.Items != nil {
			for i, elem := range arr {
				w.child(n.Items, elem, step{"", i})
			}
		}
		if n.UniqueItems {
			seen := map[string]int{}
			for i, elem := range arr {
				key := compactJSON(elem)
				if j, dup := seen[key]; dup {
					w.at = append(w.at, step{"", i})
					w.report("duplicate of element %d", j)
					w.at = w.at[:len(w.at)-1]
				} else {
					seen[key] = i
				}
			}
		}
	}

	if obj, isObj := v.(map[string]any); isObj {
		for _, name := range n.Required {
			if _, present := obj[name]; !present {
				w.report("missing required property %q", name)
			}
		}
		for _, name := range n.propNames {
			if child, present := obj[name]; present {
				w.child(n.Properties[name], child, step{name, -1})
			}
		}
		if n.closed || n.additional != nil {
			var extra []string
			for k := range obj {
				if _, declared := n.Properties[k]; !declared {
					extra = append(extra, k)
				}
			}
			slices.Sort(extra)
			for _, k := range extra {
				if n.closed {
					w.report("unexpected property %q", k)
				} else {
					w.child(n.additional, obj[k], step{k, -1})
				}
			}
		}
	}

	for _, sub := range n.AllOf {
		sub.validate(w, v)
	}
	if n.AnyOf != nil && !slices.ContainsFunc(n.AnyOf, func(sub *node) bool { return w.accepts(sub, v) }) {
		w.report("value matches no anyOf alternative")
	}
	if n.OneOf != nil {
		matches := 0
		for _, sub := range n.OneOf {
			if w.accepts(sub, v) {
				matches++
			}
		}
		if matches != 1 {
			w.report("value matches %d oneOf alternatives, want exactly 1", matches)
		}
	}
	if n.Not != nil && w.accepts(n.Not, v) {
		w.report("value matches forbidden (not) schema")
	}
}

func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}
