package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
)

// entryDocs and valueToJSON are how a Pool built its result documents
// before it appended them directly (appendResult): the EntryDoc tree,
// handed to encoding/json. They are the reference the encoder is compared
// with.
func entryDocs(res *result.Result) []EntryDoc {
	out := make([]EntryDoc, len(res.Entries))
	for i, e := range res.Entries {
		out[i] = EntryDoc{Bitstring: e.Bitstring, Index: e.Index, Value: valueToJSON(e.Value), Count: e.Count}
		if e.HasEnergy {
			energy := e.Energy
			out[i].Energy = &energy
		}
	}
	return out
}

// valueToJSON renders a decoded qdt.Value in its natural JSON shape per
// the register's measurement semantics.
func valueToJSON(v qdt.Value) any {
	switch v.Semantics {
	case qdt.AsInt:
		return v.Int
	case qdt.AsPhase, qdt.AsFixed:
		return v.Float
	case qdt.AsBool:
		return v.Bools
	case qdt.AsSpin:
		return v.Spins
	default:
		return nil
	}
}

// stdlibDoc is WriteDoc with the encoder's error kept.
func stdlibDoc(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func stdlibResultDoc(id string, res *result.Result) ([]byte, error) {
	return stdlibDoc(ResultDoc{ID: id, Engine: res.Engine, Samples: res.Samples, Entries: entryDocs(res), Meta: res.Meta})
}

func stdlibSweepDoc(head SweepResultDoc, results []*result.Result) ([]byte, error) {
	head.Results = make([]SweepPointDoc, len(results))
	for i, res := range results {
		head.Results[i] = SweepPointDoc{Index: i, Engine: res.Engine, Samples: res.Samples, Entries: entryDocs(res), Meta: res.Meta}
	}
	return stdlibDoc(head)
}

// checkWireForm holds writeResultDoc and writeSweepResultDoc to the
// standard library's bytes: the same document when it has one, otherwise
// an error and not a byte written.
func checkWireForm(t *testing.T, id string, head SweepResultDoc, results []*result.Result) {
	t.Helper()
	var got bytes.Buffer
	want, refErr := stdlibResultDoc(id, results[0])
	if err := writeResultDoc(&got, id, results[0]); (err != nil) != (refErr != nil) {
		t.Fatalf("writeResultDoc: %v, encoding/json: %v", err, refErr)
	} else if err != nil && got.Len() != 0 {
		t.Fatalf("writeResultDoc failed (%v) after writing %d bytes", err, got.Len())
	} else if err == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("result document differs from encoding/json's\n got: %s\nwant: %s", got.Bytes(), want)
	}
	got.Reset()
	want, refErr = stdlibSweepDoc(head, results)
	if err := writeSweepResultDoc(&got, head, results); (err != nil) != (refErr != nil) {
		t.Fatalf("writeSweepResultDoc: %v, encoding/json: %v", err, refErr)
	} else if err != nil && got.Len() != 0 {
		t.Fatalf("writeSweepResultDoc failed (%v) after writing %d bytes", err, got.Len())
	} else if err == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("sweep document differs from encoding/json's\n got: %s\nwant: %s", got.Bytes(), want)
	}
}

// checkStoredForm holds Store.PutResult to json.Marshal(res) — it fails
// exactly when Marshal does, and stores nothing then — and GetResult to
// what decoding Marshal's bytes gives. The key is the content address of
// those bytes, as the pool's keys address their bundles: a result stored
// once is the one every later put of the same key means. (The byte-level
// comparison of the stored form is the store's own test; its number and
// string printers are the wire form's, compared byte for byte above.)
func checkStoredForm(t *testing.T, st *store.Store, res *result.Result) {
	t.Helper()
	want, refErr := json.Marshal(res)
	sum := sha256.Sum256(want)
	key := "sha256:" + hex.EncodeToString(sum[:])
	if refErr != nil {
		key = "sha256:00000000000000000000000000000000000000000000000000000000000000aa"
	}
	err := st.PutResult(key, res)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("PutResult: %v, json.Marshal: %v", err, refErr)
	}
	if err != nil {
		if st.HasResult(key) {
			t.Fatalf("PutResult failed (%v) and stored a record", err)
		}
		return
	}
	var decoded result.Result
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	back, ok, err := st.GetResult(key)
	if err != nil || !ok {
		t.Fatalf("GetResult: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(back, &decoded) {
		t.Fatalf("GetResult(PutResult(res)) = %+v, want %+v", back, &decoded)
	}
}

// fuzzSrc turns fuzz input into choices; an exhausted input answers zero,
// so every input denotes a result.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *fuzzSrc) pick(n int) int { return int(s.byte()) % n }

func (s *fuzzSrc) take(n int) []byte {
	n = min(n, len(s.b))
	v := s.b[:n]
	s.b = s.b[n:]
	return v
}

var (
	fuzzStrings = []string{
		"", "gate.statevector", "0101", `say "hi"`, `back\slash`, "<b>&amp;</b>", "tab\there\nnew", "\x00\x01\x1f\x7f",
		"\b\f\r", "line\u2028sep\u2029end", "café 世界 \U0001f600", "\xff\xfe", "trunc\xe2\x80", "sur\xed\xa0\x80",
	}
	fuzzFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, -4, 1e21, -1e21, 9.999999999999999e20, 1e-6, 1e-7, -1.234e-9,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 123456789, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	fuzzSemantics = []qdt.MeasurementSemantics{qdt.AsInt, qdt.AsBool, qdt.AsPhase, qdt.AsSpin, qdt.AsFixed, "AS_UNKNOWN", ""}
)

func (s *fuzzSrc) str() string {
	if k := s.pick(len(fuzzStrings) + 4); k < len(fuzzStrings) {
		return fuzzStrings[k]
	}
	return string(s.take(s.pick(10)))
}

func (s *fuzzSrc) float() float64 {
	if k := s.pick(len(fuzzFloats) + 6); k < len(fuzzFloats) {
		return fuzzFloats[k]
	}
	var raw [8]byte
	copy(raw[:], s.take(8))
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (s *fuzzSrc) uint() uint64 {
	switch s.pick(4) {
	case 0:
		return math.MaxUint64
	case 1:
		return uint64(s.byte())
	}
	var raw [8]byte
	copy(raw[:], s.take(8))
	return binary.LittleEndian.Uint64(raw[:])
}

// any is a Meta value: the JSON-native kinds a reloaded result holds, the
// typed ones a fresh execution does, and (rarely) one encoding/json
// refuses.
func (s *fuzzSrc) any(depth int) any {
	switch k := s.pick(12); {
	case k == 0:
		return nil
	case k == 1:
		return s.byte()&1 == 1
	case k == 2:
		return s.float()
	case k == 3:
		return int(s.uint())
	case k == 4:
		return struct {
			DepthBefore int
			Note        string `json:"note,omitempty"`
		}{int(s.byte()), s.str()}
	case k == 5 && depth < 3:
		list := make([]any, s.pick(4))
		for i := range list {
			list[i] = s.any(depth + 1)
		}
		return list
	case k == 6 && depth < 3:
		return s.meta(depth + 1)
	case k == 7 && s.byte() == 0xff:
		return make(chan int)
	default:
		return s.str()
	}
}

func (s *fuzzSrc) meta(depth int) map[string]any {
	var m map[string]any
	switch n := s.pick(6); n {
	case 0:
	case 1:
		m = map[string]any{}
	default:
		m = make(map[string]any, n)
		for i := 1; i < n; i++ {
			m[s.str()] = s.any(depth)
		}
	}
	return m
}

func (s *fuzzSrc) result() *result.Result {
	res := &result.Result{Engine: s.str(), Samples: int(int32(s.uint())), Meta: s.meta(0)}
	switch n := s.pick(6); n {
	case 0:
	case 1:
		res.Entries = []result.Entry{}
	default:
		for i := 1; i < n; i++ {
			e := result.Entry{
				Bitstring: s.str(),
				Index:     s.uint(),
				Value:     qdt.Value{Semantics: fuzzSemantics[s.pick(len(fuzzSemantics))], Int: int64(s.uint()), Index: s.uint()},
				Count:     int(int32(s.uint())),
			}
			flags := s.byte()
			// The stored form prints Float and Energy whatever the semantics; the
			// wire form only where they mean something. Leave most of them zero
			// so that both outcomes of an entry's float check are generated.
			if flags&1 != 0 {
				e.Value.Float = s.float()
			}
			if flags&2 != 0 {
				e.Energy = s.float()
			}
			e.HasEnergy = flags&4 != 0
			if flags&8 != 0 {
				e.Value.Bools = make([]bool, s.pick(5))
				for k := range e.Value.Bools {
					e.Value.Bools[k] = s.byte()&1 == 1
				}
			}
			if flags&16 != 0 {
				e.Value.Spins = make([]int8, s.pick(5))
				for k := range e.Value.Spins {
					e.Value.Spins[k] = int8(s.byte())
				}
			}
			res.Entries = append(res.Entries, e)
		}
	}
	return res
}

// FuzzResultEncoding holds the two direct result encoders to the standard
// library's bytes on generated results: every measurement semantics and an
// unknown one, nil and empty Entries, Bools, Spins and Meta, the floats
// whose printed form changes shape (and those that have none), strings
// that need every kind of escape, nested and typed Meta values. The wire
// form is compared as a ResultDoc and as the points of a three-point
// SweepResultDoc, the stored form through a Store. The seed corpus under
// testdata/fuzz/FuzzResultEncoding replays in plain go test.
func FuzzResultEncoding(f *testing.F) {
	st, err := store.Open(f.TempDir(), store.Options{Sync: store.SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	f.Add([]byte{})
	f.Add([]byte("\x01\x00\x00\x05\x02\x03\x0a\x01\x07\x01\x00\x01\x02\x3f\x04\x01\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSrc{b: data}
		id := src.str()
		head := SweepResultDoc{ID: id, TraceID: src.str(), State: StateDone, Engine: src.str(), Points: 3, PointsDone: 3, Progress: 1}
		if src.byte()&1 == 1 {
			head.Profile = json.RawMessage(`{"points":3,"kinds":[{"kind":"gate1q","ns":12}]}`)
		}
		results := []*result.Result{src.result(), src.result(), src.result()}
		checkWireForm(t, id, head, results)
		checkStoredForm(t, st, results[0])
	})
}

// TestResultEncodingCases runs the fuzz target's checks over results
// spelled out by hand, so that each rule of the two formats has a named
// case that fails without a fuzzer.
func TestResultEncodingCases(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	energy := func(e result.Entry, v float64) result.Entry { e.Energy, e.HasEnergy = v, true; return e }
	spin := result.Entry{Bitstring: "10", Index: 1, Value: qdt.Value{Semantics: qdt.AsSpin, Spins: []int8{1, -1}, Index: 1}, Count: 3}
	cases := map[string]*result.Result{
		"zero":          {},
		"empty entries": {Engine: "e", Samples: 1, Entries: []result.Entry{}, Meta: map[string]any{}},
		"every semantics": {Engine: "gate.statevector", Samples: 256, Entries: []result.Entry{
			{Bitstring: "0101", Index: 10, Value: qdt.Value{Semantics: qdt.AsBool, Bools: []bool{false, true, false, true}, Index: 10}, Count: 63},
			spin,
			{Bitstring: "11", Index: 3, Value: qdt.Value{Semantics: qdt.AsInt, Int: -3, Index: 3}, Count: 2},
			{Bitstring: "01", Index: 2, Value: qdt.Value{Semantics: qdt.AsPhase, Float: 0.75, Index: 2}, Count: 2},
			{Bitstring: "00", Index: 0, Value: qdt.Value{Semantics: qdt.AsFixed, Int: 9, Float: 1e-7, Index: 0}, Count: 1},
			{Bitstring: "??", Index: math.MaxUint64, Value: qdt.Value{Semantics: "AS_UNKNOWN", Int: 5, Float: 2}, Count: -1},
		}},
		"nil and empty slices": {Entries: []result.Entry{
			{Value: qdt.Value{Semantics: qdt.AsBool}},
			{Value: qdt.Value{Semantics: qdt.AsSpin}},
			{Value: qdt.Value{Semantics: qdt.AsBool, Bools: []bool{}, Spins: []int8{}}},
			{Value: qdt.Value{Semantics: qdt.AsSpin, Bools: []bool{}, Spins: []int8{}}},
			{Value: qdt.Value{Semantics: qdt.AsInt, Bools: []bool{true}, Spins: []int8{-128, 127}}},
		}},
		"energies": {Engine: "anneal.sa", Entries: []result.Entry{
			energy(spin, -4), energy(spin, math.Copysign(0, -1)), energy(spin, 1e21), energy(spin, 9.999999999999999e20),
			energy(spin, 1e-6), energy(spin, 1e-7), energy(spin, 5e-324), energy(spin, -1.5e-300), energy(spin, math.MaxFloat64),
		}},
		"strings": {Engine: "a \"q\" \\ <b>&</b> \x00\x1f\b\f\n\r\t\x7f \u2028\u2029 \xff café", Entries: []result.Entry{
			{Bitstring: "\xe2\x80", Value: qdt.Value{Semantics: "<AS>"}},
		}, Meta: map[string]any{"<k>": "v & \u2028", "\xff": []any{"\x01", nil, true, 1.5, map[string]any{}}}},
		"typed meta": {Engine: "e", Meta: map[string]any{
			"intent_fingerprint": "46b8a495",
			"transpile":          struct{ DepthBefore, SwapsInserted int }{15, 0},
			"nested":             map[string]any{"list": []int{1, 2}, "empty": []any{}, "deep": map[string]any{"x": 1e-9}},
		}},
		"hidden non-finite floats": {Entries: []result.Entry{
			// Not printed by the wire form (wrong semantics, no energy), so only
			// the stored form, which prints every field, must refuse.
			{Value: qdt.Value{Semantics: qdt.AsInt, Float: math.NaN()}, Energy: math.Inf(1)},
		}},
		"NaN phase":     {Entries: []result.Entry{spin, {Value: qdt.Value{Semantics: qdt.AsPhase, Float: math.NaN()}}}},
		"Inf fixed":     {Entries: []result.Entry{{Value: qdt.Value{Semantics: qdt.AsFixed, Float: math.Inf(-1)}}}},
		"Inf energy":    {Entries: []result.Entry{energy(spin, math.Inf(1))}},
		"NaN in meta":   {Entries: []result.Entry{spin}, Meta: map[string]any{"x": math.NaN()}},
		"chan in meta":  {Meta: map[string]any{"nested": map[string]any{"c": make(chan int)}}},
		"meta only":     {Meta: map[string]any{"k": "v"}},
		"entries only":  {Entries: []result.Entry{spin, spin}},
		"negative ints": {Samples: -7, Entries: []result.Entry{{Index: 1, Value: qdt.Value{Semantics: qdt.AsInt, Int: math.MinInt64}, Count: math.MinInt32}}},
	}
	good := cases["every semantics"]
	for name, res := range cases {
		t.Run(name, func(t *testing.T) {
			head := SweepResultDoc{ID: "job-00000007", TraceID: "t", State: StateDone, Engine: res.Engine, Points: 3, PointsDone: 3, Progress: 1,
				Profile: json.RawMessage(`{"points":3,"kinds":[]}`)}
			// The case as the first, the middle and the only point.
			checkWireForm(t, head.ID, head, []*result.Result{res, good, res})
			checkWireForm(t, head.ID, head, []*result.Result{good, res, good})
			checkWireForm(t, `id "<&>`, SweepResultDoc{}, []*result.Result{res})
			checkStoredForm(t, st, res)
		})
	}
	t.Run("no points", func(t *testing.T) {
		var got bytes.Buffer
		want, _ := stdlibSweepDoc(SweepResultDoc{ID: "job-1"}, nil)
		if err := writeSweepResultDoc(&got, SweepResultDoc{ID: "job-1"}, nil); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("err=%v\n got: %s\nwant: %s", err, got.Bytes(), want)
		}
	})
}

// sweepDocResults is the payload of a sweep document in the shape of
// serve_sweep14's: points results of up to 254 AS_SPIN entries (what 256
// shots of a 14-qubit register leave) over bits carriers, each with the
// gate engine's meta.
func sweepDocResults(points, bits int) []*result.Result {
	results := make([]*result.Result, points)
	for p := range results {
		res := &result.Result{Engine: "gate.statevector", Samples: 256, Meta: map[string]any{
			"intent_fingerprint": strings.Repeat("46b8a495", 8),
			"transpile": struct{ DepthBefore, DepthAfter, TwoQBefore, TwoQAfter, SizeBefore, SizeAfter, SwapsInserted int }{
				15, 15, 28, 28, 84, 84, 0},
		}}
		for k := uint64(1); k < uint64(min(255, 1<<bits-1)); k++ {
			idx := k*uint64(2*p+1)*2654435761%(1<<bits) | 1
			e := result.Entry{Index: idx, Count: int(255 - k), Value: qdt.Value{Semantics: qdt.AsSpin, Index: idx, Spins: make([]int8, bits)}}
			text := make([]byte, bits)
			for b := range text {
				text[b] = '0' + byte(idx>>b&1)
				e.Value.Spins[b] = 2*int8(idx>>b&1) - 1
			}
			e.Bitstring = string(text)
			res.Entries = append(res.Entries, e)
		}
		results[p] = res
	}
	return results
}

var sweepDocHead = SweepResultDoc{ID: "job-00000001", TraceID: "0123456789abcdef", State: StateDone, Engine: "gate.statevector", Points: 32, PointsDone: 32, Progress: 1}

// writeRecorder records the size of every Write, fails the one that would
// take it past limit bytes (limit < 0: none) and counts the calls that
// come after that failure.
type writeRecorder struct {
	limit, total int
	sizes        []int
	failed       bool
	afterFailure int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	if w.failed {
		w.afterFailure++
		return 0, errors.New("connection reset")
	}
	w.sizes = append(w.sizes, len(p))
	if w.limit >= 0 && w.total+len(p) > w.limit {
		n := w.limit - w.total
		w.total, w.failed = w.limit, true
		return n, errors.New("connection reset")
	}
	w.total += len(p)
	return len(p), nil
}

// TestSweepDocStreamsPerPoint: the sweep document leaves in bounded writes
// — never more than flushBytes plus one point — whether its points are
// large (each goes out alone) or small (many share a write).
func TestSweepDocStreamsPerPoint(t *testing.T) {
	for _, c := range []struct{ points, bits int }{{32, 14}, {600, 3}} {
		results := sweepDocResults(c.points, c.bits)
		var whole, point bytes.Buffer
		if err := writeSweepResultDoc(&whole, sweepDocHead, results); err != nil {
			t.Fatal(err)
		}
		if err := writeSweepResultDoc(&point, sweepDocHead, results[:1]); err != nil {
			t.Fatal(err)
		}
		rec := &writeRecorder{limit: -1}
		if err := writeSweepResultDoc(rec, sweepDocHead, results); err != nil {
			t.Fatal(err)
		}
		if rec.total != whole.Len() {
			t.Fatalf("%d points: recorded %d bytes, document has %d", c.points, rec.total, whole.Len())
		}
		bound := flushBytes + point.Len()
		for _, n := range rec.sizes {
			if n > bound {
				t.Errorf("%d points of %d bits: a Write of %d bytes, bound %d (flushBytes + one point)", c.points, c.bits, n, bound)
			}
		}
		if min := whole.Len() / bound; len(rec.sizes) < min {
			t.Errorf("%d points: %d writes for %d bytes", c.points, len(rec.sizes), whole.Len())
		}
		if c.bits == 14 && len(rec.sizes) != c.points+1 {
			t.Errorf("a point larger than flushBytes must leave by itself: %d writes for %d points (+ the tail)", len(rec.sizes), c.points)
		}
		if c.bits == 3 && len(rec.sizes) > c.points/4 {
			t.Errorf("small points must share writes: %d writes for %d points", len(rec.sizes), c.points)
		}
	}
}

// TestSweepDocWriterFails: a writer that fails after k bytes ends the
// encoding — no panic, no error to report (the status line is out), and
// nothing further is written.
func TestSweepDocWriterFails(t *testing.T) {
	results := sweepDocResults(32, 14)
	for _, k := range []int{0, 1, 100, flushBytes, 3 * flushBytes, 1 << 20} {
		rec := &writeRecorder{limit: k}
		if err := writeSweepResultDoc(rec, sweepDocHead, results); err != nil {
			t.Errorf("fail after %d bytes: error %v reported after the first write", k, err)
		}
		if rec.total != k || !rec.failed || rec.afterFailure != 0 {
			t.Errorf("fail after %d bytes: writer accepted %d, failed=%v, %d writes after the failure", k, rec.total, rec.failed, rec.afterFailure)
		}
	}
	rec := &writeRecorder{limit: 10}
	if err := writeResultDoc(rec, "job-1", results[0]); err != nil || len(rec.sizes) != 1 {
		t.Errorf("result document over a failing writer: err=%v writes=%v", err, rec.sizes)
	}
}

// TestSweepDocAllocs: encoding a sweep document allocates for its head and
// once per point's meta, not per entry (the tree-then-reflect encoding
// allocated 8306 times for this document).
func TestSweepDocAllocs(t *testing.T) {
	results := sweepDocResults(32, 14)
	if err := writeSweepResultDoc(io.Discard, sweepDocHead, results); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = writeSweepResultDoc(io.Discard, sweepDocHead, results)
	})
	if allocs > 600 {
		t.Errorf("a 32 x 254-entry sweep document allocates %.0f times, want <= 600", allocs)
	}
}

// badMetaBackend returns results whose Meta or entries have no JSON form
// for the seeds it is told to spoil.
type badMetaBackend struct {
	name  string
	spoil func(seed uint64, res *result.Result)
}

func (b *badMetaBackend) Name() string { return b.name }

func (b *badMetaBackend) Prepare(_ *bundle.Bundle, o backend.ExecOptions) (backend.Prepared, error) {
	return backend.PerPoint(b.Execute, o), nil
}

func (b *badMetaBackend) Execute(bd *bundle.Bundle, _ backend.ExecOptions) (*result.Result, error) {
	spin := qdt.Value{Semantics: qdt.AsSpin, Spins: []int8{1, -1, 1, -1}, Index: 5}
	res := &result.Result{Engine: b.name, Samples: 100, Entries: []result.Entry{{Bitstring: "1010", Index: 5, Value: spin, Count: 100}}}
	b.spoil(bd.Context.Exec.Seed, res)
	return res, nil
}

// TestUnencodableResultIs500: a done job whose result has no JSON form —
// engines are pluggable and Meta is open-ended — answers 500 with an
// ErrorDoc naming the job and the field, not 200 with an empty body; a
// sweep with one such point among good ones sends nothing of the document.
func TestUnencodableResultIs500(t *testing.T) {
	be := &badMetaBackend{name: "fake.unencodable", spoil: func(seed uint64, res *result.Result) {
		switch seed {
		case 1:
			res.Meta = map[string]any{"x": math.NaN()}
		case 2:
			res.Entries[0].Energy, res.Entries[0].HasEnergy = math.Inf(1), true
		case 3:
			res.Entries[0].Value = qdt.Value{Semantics: qdt.AsPhase, Float: math.NaN()}
		case 4:
			res.Meta = map[string]any{"hook": func() {}}
		}
	}}
	backend.Register(be.name, func() backend.Backend { return be })
	t.Cleanup(func() { backend.Unregister(be.name) })
	pool := NewPool(Options{Workers: 1, QueueDepth: 8})
	defer pool.Close()
	h := NewHandler(pool)

	get := func(path string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w.Code, w.Body.String()
	}
	for seed, field := range map[uint64]string{1: "meta", 2: "entries[0].energy", 3: "entries[0].value", 4: "meta"} {
		id, err := submit(pool, annealBundle(t, be.name, 50, seed))
		if err != nil {
			t.Fatal(err)
		}
		if st, err := pool.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("seed %d: %v / %+v", seed, err, st)
		}
		code, body := get("/v1/jobs/" + id + "/result")
		var doc ErrorDoc
		if code != http.StatusInternalServerError || json.Unmarshal([]byte(body), &doc) != nil ||
			!strings.Contains(doc.Error, id) || !strings.Contains(doc.Error, field) {
			t.Errorf("seed %d: GET result = %d %q, want 500 with an ErrorDoc naming %s and %s", seed, code, body, id, field)
		}
	}
	// A good job on the same pool still answers its document.
	id, err := submit(pool, annealBundle(t, be.name, 50, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Wait(id); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/v1/jobs/" + id + "/result"); code != http.StatusOK || !strings.HasSuffix(body, "\n}\n") {
		t.Errorf("good job: %d %q", code, body)
	}
}

// TestUnencodableSweepPointIs500 is the sweep half: the engine is the real
// one, and the spoiled point is planted in the finished sweep's results.
func TestUnencodableSweepPointIs500(t *testing.T) {
	pool := NewPool(Options{Workers: 1, QueueDepth: 8})
	defer pool.Close()
	h := NewHandler(pool)
	b, err := bundle.FromJSON(sweepBundleJSON(t, 4, [][]float64{{0.3, 0.7}, {1.1, 0.2}, {0.8, 1.4}}), qop.ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := submitSweep(pool, b)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := pool.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("sweep: %v / %+v", err, st)
	}
	get := func() (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/sweeps/"+id, nil))
		return w.Code, w.Body.String()
	}
	code, good := get()
	if code != http.StatusOK || !strings.HasSuffix(good, "\n  ]\n}\n") {
		t.Fatalf("good sweep: %d %.200q", code, good)
	}
	pool.mu.Lock()
	j, _ := pool.Get(id)
	j.results[1].Meta["x"] = math.Inf(-1)
	pool.mu.Unlock()
	code, body := get()
	var doc ErrorDoc
	if code != http.StatusInternalServerError || json.Unmarshal([]byte(body), &doc) != nil ||
		!strings.Contains(doc.Error, id) || !strings.Contains(doc.Error, "point 1") || !strings.Contains(doc.Error, "meta") {
		t.Errorf("GET sweep = %d %.300q, want 500 with an ErrorDoc naming %s, point 1 and meta", code, body, id)
	}
}

// BenchmarkWriteSweepResult encodes the serve_sweep14 document: 32 points
// of a 14-qubit register at 256 shots.
func BenchmarkWriteSweepResult(b *testing.B) {
	results := sweepDocResults(32, 14)
	var doc bytes.Buffer
	if err := writeSweepResultDoc(&doc, sweepDocHead, results); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeSweepResultDoc(io.Discard, sweepDocHead, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteResult encodes serve_mix's typical document: a 10-qubit
// register at 1024 shots, through Pool.WriteResult.
func BenchmarkWriteResult(b *testing.B) {
	pool := NewPool(Options{Workers: 1})
	defer pool.Close()
	sweep := laneSweepBundle(b, "gate.statevector", 10, [][]float64{{0.4, 1.1}})
	job, err := sweep.BindPoint(sweep.Context.Sweep.Points[0])
	if err != nil {
		b.Fatal(err)
	}
	job.Context.Exec.Samples = 1024
	id, err := submit(pool, job)
	if err != nil {
		b.Fatal(err)
	}
	if st, err := pool.Wait(id); err != nil || st.State != StateDone {
		b.Fatalf("job: %v / %+v", err, st)
	}
	var doc bytes.Buffer
	if err := pool.WriteResult(context.Background(), &doc, id); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.WriteResult(context.Background(), io.Discard, id); err != nil {
			b.Fatal(err)
		}
	}
}
