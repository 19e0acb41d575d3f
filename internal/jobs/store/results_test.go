package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/qdt"
	"repro/internal/result"
)

// pointResult has the shape of one serve_sweep14 point file: 254 AS_SPIN
// entries over 14 carriers and the gate engine's meta.
func pointResult() *result.Result {
	res := &result.Result{Engine: "gate.statevector", Samples: 256, Meta: map[string]any{
		"intent_fingerprint": strings.Repeat("46b8a495", 8),
		"transpile":          map[string]any{"DepthBefore": 15, "DepthAfter": 15, "TwoQBefore": 28, "TwoQAfter": 28, "SwapsInserted": 0},
	}}
	for k := uint64(1); k < 255; k++ {
		idx := k * 2654435761 % (1 << 14)
		e := result.Entry{Index: idx, Count: int(255 - k), Value: qdt.Value{Semantics: qdt.AsSpin, Index: idx, Spins: make([]int8, 14)}}
		text := make([]byte, 14)
		for b := range text {
			text[b] = '0' + byte(idx>>b&1)
			e.Value.Spins[b] = 2*int8(idx>>b&1) - 1
		}
		e.Bitstring = string(text)
		res.Entries = append(res.Entries, e)
	}
	return res
}

// TestStoredFormMatchesEncodingJSON: appendResult prints what
// json.Marshal(res) does — the format of every result file on disk — and
// refuses what it refuses. (jobs.FuzzResultEncoding runs the same
// comparison through PutResult on generated results.)
func TestStoredFormMatchesEncodingJSON(t *testing.T) {
	cases := map[string]*result.Result{
		"nil":    nil,
		"zero":   {},
		"empty":  {Engine: "e", Entries: []result.Entry{}, Meta: map[string]any{}},
		"point":  pointResult(),
		"sample": sampleResult(3),
		"every field": {Engine: "a \"q\" \\ <b>&</b> \x00\x1f  \xff é", Samples: -1, Entries: []result.Entry{
			{Bitstring: "01", Index: math.MaxUint64, Value: qdt.Value{Semantics: qdt.AsBool, Bools: []bool{false, true}, Index: 2}, Count: 63},
			{Bitstring: "10", Index: 1, Value: qdt.Value{Semantics: qdt.AsSpin, Spins: []int8{1, -1, -128, 127}}, Count: -2, Energy: -4, HasEnergy: true},
			{Value: qdt.Value{Semantics: qdt.AsInt, Int: math.MinInt64, Bools: []bool{}, Spins: []int8{}}},
			{Value: qdt.Value{Semantics: qdt.AsPhase, Float: 0.75}, Energy: math.Copysign(0, -1)},
			{Value: qdt.Value{Semantics: qdt.AsFixed, Int: 9, Float: 1e-7}, Energy: 1e21, HasEnergy: true},
			{Value: qdt.Value{Semantics: "<AS>", Float: 9.999999999999999e20}, Energy: 5e-324},
		}, Meta: map[string]any{"<k>": []any{1, "two", nil, true, map[string]any{}}, "typed": struct{ A int }{1}}},
	}
	for name, res := range cases {
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendResult([]byte("x"), res)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("%s: err=%v\n got: %s\nwant: %s", name, err, got[1:], want)
		}
	}
	s, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, res := range map[string]*result.Result{
		// The stored form prints every field, so a float the wire form would
		// never show is refused here too, as json.Marshal refuses it.
		"NaN float":   {Entries: []result.Entry{{Value: qdt.Value{Semantics: qdt.AsInt, Float: math.NaN()}}}},
		"Inf energy":  {Entries: []result.Entry{{Energy: math.Inf(-1)}}},
		"NaN in meta": {Meta: map[string]any{"x": math.NaN()}},
		"func meta":   {Meta: map[string]any{"f": func() {}}},
	} {
		if _, refErr := json.Marshal(res); refErr == nil {
			t.Fatalf("%s: json.Marshal accepts it", name)
		}
		before := s.met.errors.Value()
		if err := s.PutResult(sampleKey(9), res); err == nil || !strings.Contains(err.Error(), sampleKey(9)) {
			t.Errorf("%s: PutResult = %v, want an error naming the key", name, err)
		}
		if s.HasResult(sampleKey(9)) || s.met.errors.Value() != before+1 {
			t.Errorf("%s: a refused result left a record or went uncounted", name)
		}
	}
}

// TestParentResultFile: testdata/parent_result.json was written by
// PutResult of the commit before results were appended directly (when it
// was json.Marshal(res)), as results/<hex>.json — the layout before the
// result log. Open must import it into the log and remove it, GetResult
// must serve it, and the encoder must reproduce it byte for byte — from
// the decoded result, and again after a PutResult/GetResult round trip of
// its own: the body format did not change and carries no version, so a
// data directory of either build serves the other's results.
func TestParentResultFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent_result.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "results", strings.TrimPrefix(sampleKey(1), "sha256:")+".json")
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, want, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(file); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the parent's file is still there after the import: %v", err)
	}
	res, ok, err := s.GetResult(sampleKey(1))
	if err != nil || !ok {
		t.Fatalf("GetResult of the parent's file: ok=%v err=%v", ok, err)
	}
	if len(res.Entries) != 7 || res.Samples != 1024 || res.Entries[1].Energy != -4 || !res.Entries[1].HasEnergy ||
		res.Entries[4].Value.Float != 1e-7 || res.Entries[5].Index != math.MaxUint64 || len(res.Meta) != 5 {
		t.Fatalf("decoded parent file: %+v", res)
	}
	if got := storedBody(t, s, sampleKey(1)); !bytes.Equal(got, want) {
		t.Fatalf("imported record differs from the parent's file\n got: %s\nwant: %s", got, want)
	}
	if err := s.PutResult(sampleKey(2), res); err != nil {
		t.Fatal(err)
	}
	if got := storedBody(t, s, sampleKey(2)); !bytes.Equal(got, want) {
		t.Fatalf("re-stored parent result differs\n got: %s\nwant: %s", got, want)
	}
	again, ok, err := s.GetResult(sampleKey(2))
	if err != nil || !ok || !reflect.DeepEqual(again, res) {
		t.Fatalf("round trip: ok=%v err=%v\n got: %+v\nwant: %+v", ok, err, again, res)
	}
}

// BenchmarkPutResult appends one 254-entry point result without fsync.
// "log" is PutResult whole, under fresh keys; "encode" is its encoding
// alone.
func BenchmarkPutResult(b *testing.B) {
	res := pointResult()
	raw, err := appendResult(nil, res)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		buf := raw
		for i := 0; i < b.N; i++ {
			if buf, err = appendResult(buf[:0], res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("log", func(b *testing.B) {
		// A fresh store every 1000 puts keeps the log at tens of megabytes.
		dir := b.TempDir()
		var s *Store
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%1000 == 0 {
				b.StopTimer()
				if s != nil {
					s.Close()
				}
				os.RemoveAll(filepath.Join(dir, "results"))
				if s, err = Open(dir, Options{Sync: SyncNone}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := s.PutResult(fmt.Sprintf("sha256:%064x", i), res); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
	})
}
