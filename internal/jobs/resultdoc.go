// The result documents of /v1 — GET /v1/jobs/{id}/result and GET
// /v1/sweeps/{id} — and the encoder a Pool writes them with. A result is
// the heaviest thing the serving tier produces (bitstring, index, typed
// value and count per outcome; megabytes for a sweep grid), so a Pool does
// not build the Doc tree below and hand it to encoding/json: it appends
// the document's bytes straight from the result's entry table
// (appendResult) and sends a sweep's points as they are encoded. The Doc
// types remain the statement of the format, what a dispatcher decodes its
// workers' documents into, and the reference the encoder is tested
// against.

package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/jsonenc"
	"repro/internal/qdt"
	"repro/internal/result"
)

// EntryDoc is one decoded outcome of a result.
type EntryDoc struct {
	Bitstring string   `json:"bitstring"`
	Index     uint64   `json:"index"`
	Value     any      `json:"value,omitempty"`
	Count     int      `json:"count"`
	Energy    *float64 `json:"energy,omitempty"`
}

// ResultDoc is GET /v1/jobs/{id}/result.
type ResultDoc struct {
	ID      string         `json:"id"`
	Engine  string         `json:"engine"`
	Samples int            `json:"samples"`
	Entries []EntryDoc     `json:"entries"`
	Meta    map[string]any `json:"meta,omitempty"`
}

// SweepPointDoc is one indexed per-point result in a sweep result set.
type SweepPointDoc struct {
	Index   int            `json:"index"`
	Engine  string         `json:"engine"`
	Samples int            `json:"samples"`
	Entries []EntryDoc     `json:"entries"`
	Meta    map[string]any `json:"meta,omitempty"`
}

// SweepResultDoc is GET /v1/sweeps/{id} for a done sweep.
type SweepResultDoc struct {
	ID         string          `json:"id"`
	TraceID    string          `json:"trace_id,omitempty"`
	State      State           `json:"state"`
	Engine     string          `json:"engine,omitempty"`
	Points     int             `json:"points"`
	PointsDone int             `json:"points_done"`
	Progress   float64         `json:"progress"`
	Profile    json.RawMessage `json:"profile,omitempty"`
	Results    []SweepPointDoc `json:"results"`
}

// NewSweepResultDoc is the document's head, taken from the sweep's
// snapshot; the caller fills Results.
func NewSweepResultDoc(st Status) SweepResultDoc {
	return SweepResultDoc{
		ID: st.ID, TraceID: st.Trace, State: st.State, Engine: st.Engine,
		Points: st.Points, PointsDone: st.PointsDone, Progress: st.Progress, Profile: st.Profile,
	}
}

// docBufs recycles the buffers (*[]byte) result documents are encoded in.
var docBufs = sync.Pool{New: func() any { return new([]byte) }}

// flushBytes is how much of a sweep document accumulates before it is
// written out. The check runs between points, so a Write carries less than
// flushBytes plus one point and the encoder holds about that much however
// large the grid: a 14-qubit point (~100 KB) goes out by itself, a grid of
// small points in few writes rather than one per point.
const flushBytes = 64 << 10

// indents is a comma, a newline and the deepest indentation a result
// document reaches (a value element inside an entry inside a sweep point).
const indents = ",\n              "

// sep continues an object or array with its next member at the given
// depth (",\n" and the indentation); nl is the same without the comma,
// for a first member or a closing bracket.
func sep(depth int) string { return indents[:2+2*depth] }
func nl(depth int) string  { return indents[1 : 2+2*depth] }

// wireMeta is everything about res that can fail to encode, done before
// the first byte of a document is written: it checks the floats the wire
// form prints (an AS_PHASE or AS_FIXED value, a present energy) and
// renders the "meta" member's value as it appears in an object whose
// members sit at the given depth (nil: the member is omitted). Meta is
// engine-specific and open-ended — backends are pluggable — so it is the
// one part of a result that still goes through encoding/json.
func wireMeta(res *result.Result, depth int) ([]byte, error) {
	for i := range res.Entries {
		e := &res.Entries[i]
		if s := e.Value.Semantics; (s == qdt.AsPhase || s == qdt.AsFixed) && !jsonenc.Finite(e.Value.Float) {
			return nil, fmt.Errorf("entries[%d].value is %v, which JSON cannot carry", i, e.Value.Float)
		}
		if e.HasEnergy && !jsonenc.Finite(e.Energy) {
			return nil, fmt.Errorf("entries[%d].energy is %v, which JSON cannot carry", i, e.Energy)
		}
	}
	if len(res.Meta) == 0 {
		return nil, nil
	}
	raw, err := json.Marshal(res.Meta)
	if err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, raw, nl(depth)[1:], "  "); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	return out.Bytes(), nil
}

// appendResult appends the members a ResultDoc and a SweepPointDoc share —
// "engine", "samples", "entries" and, when meta (from wireMeta at the same
// depth) is non-nil, "meta" — continuing an object whose first member the
// caller wrote and whose members sit at the given depth: 1 in a ResultDoc,
// 3 in a point of a SweepResultDoc. The bytes are those of json.Encoder
// with SetIndent("", "  ") over the Doc types, which every /v1 document
// has always been written with (WriteDoc) and TestGoldenWire pins:
//
//   - members in struct order; "value" omitted for unknown semantics and
//     "energy" unless the entry has one, "meta" when empty (omitempty);
//   - "entries": [] when there are none, "value": null for nil Bools or
//     Spins and [] for empty ones, otherwise one element per line;
//   - strings and floats as jsonenc prints them (HTML-escaped; 'f' form
//     unless the exponent is below -6 or at least 21).
//
// It cannot fail: wireMeta has checked the floats. FuzzResultEncoding
// compares it with the standard library on generated results.
func appendResult(dst []byte, res *result.Result, meta []byte, depth int) []byte {
	dst = append(append(dst, sep(depth)...), `"engine": `...)
	dst = jsonenc.AppendString(dst, res.Engine)
	dst = append(append(dst, sep(depth)...), `"samples": `...)
	dst = strconv.AppendInt(dst, int64(res.Samples), 10)
	dst = append(append(dst, sep(depth)...), `"entries": [`...)
	open, member, next := nl(depth+1), nl(depth+2), sep(depth+2)
	for i := range res.Entries {
		e := &res.Entries[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, open...), '{')
		dst = append(append(dst, member...), `"bitstring": `...)
		dst = jsonenc.AppendString(dst, e.Bitstring)
		dst = append(append(dst, next...), `"index": `...)
		dst = strconv.AppendUint(dst, e.Index, 10)
		switch e.Value.Semantics {
		case qdt.AsInt:
			dst = append(append(dst, next...), `"value": `...)
			dst = strconv.AppendInt(dst, e.Value.Int, 10)
		case qdt.AsPhase, qdt.AsFixed:
			dst = append(append(dst, next...), `"value": `...)
			dst = jsonenc.AppendFloat(dst, e.Value.Float)
		case qdt.AsBool:
			dst = append(append(dst, next...), `"value": `...)
			dst = appendArray(dst, e.Value.Bools, depth+3, strconv.AppendBool)
		case qdt.AsSpin:
			dst = append(append(dst, next...), `"value": `...)
			dst = appendArray(dst, e.Value.Spins, depth+3, appendSpin)
		}
		dst = append(append(dst, next...), `"count": `...)
		dst = strconv.AppendInt(dst, int64(e.Count), 10)
		if e.HasEnergy {
			dst = append(append(dst, next...), `"energy": `...)
			dst = jsonenc.AppendFloat(dst, e.Energy)
		}
		dst = append(append(dst, open...), '}')
	}
	if len(res.Entries) > 0 {
		dst = append(dst, nl(depth)...)
	}
	dst = append(dst, ']')
	if meta != nil {
		dst = append(append(dst, sep(depth)...), `"meta": `...)
		dst = append(dst, meta...)
	}
	return dst
}

// appendSpin appends one element of an AS_SPIN value: ±1 from the decoder,
// any int8 from elsewhere.
func appendSpin(dst []byte, s int8) []byte {
	switch s {
	case 1:
		return append(dst, '1')
	case -1:
		return append(dst, '-', '1')
	}
	return strconv.AppendInt(dst, int64(s), 10)
}

// appendArray appends a typed value's slice with its elements at the given
// depth: null for a nil slice (the value is typed, so the member is not
// omitted), [] for an empty one.
func appendArray[T any](dst []byte, vs []T, depth int, elem func([]byte, T) []byte) []byte {
	switch {
	case vs == nil:
		return append(dst, "null"...)
	case len(vs) == 0:
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	first, next := nl(depth), sep(depth)
	for i, v := range vs {
		if i == 0 {
			dst = append(dst, first...)
		} else {
			dst = append(dst, next...)
		}
		dst = elem(dst, v)
	}
	return append(append(dst, nl(depth-1)...), ']')
}

// writeResultDoc writes the ResultDoc of a done job's result to w in one
// Write. An error means the result has no JSON form and nothing was
// written; a failed write is not reported (there is no one left to tell).
func writeResultDoc(w io.Writer, id string, res *result.Result) error {
	meta, err := wireMeta(res, 1)
	if err != nil {
		return fmt.Errorf("jobs: result of %q cannot be encoded: %w", id, err)
	}
	bp := docBufs.Get().(*[]byte)
	buf := append((*bp)[:0], "{\n  \"id\": "...)
	buf = jsonenc.AppendString(buf, id)
	buf = appendResult(buf, res, meta, 1)
	buf = append(buf, "\n}\n"...)
	_, _ = w.Write(buf)
	*bp = buf[:0]
	docBufs.Put(bp)
	return nil
}

// writeSweepResultDoc writes the SweepResultDoc with the given head
// (Results unset) and per-point results to w, point by point: at most
// flushBytes plus one point are held and written at a time, so the
// encoder's memory does not grow with the grid and the reader's work
// overlaps the encoding. Whatever can fail — a point that has no JSON
// form — fails before the first Write; after it, a failed write ends the
// encoding and is not reported.
func writeSweepResultDoc(w io.Writer, head SweepResultDoc, results []*result.Result) error {
	metas := make([][]byte, len(results))
	for i, res := range results {
		var err error
		if metas[i], err = wireMeta(res, 3); err != nil {
			return fmt.Errorf("jobs: result of sweep %q cannot be encoded: point %d: %w", head.ID, i, err)
		}
	}
	bp := docBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() { *bp = buf; docBufs.Put(bp) }()
	// The head is small and carries a raw profile document: the standard
	// encoder writes it, closed over an empty result list that the points
	// then replace.
	const emptyTail = "[]\n}\n"
	head.Results = []SweepPointDoc{}
	hb := bytes.NewBuffer(buf)
	enc := json.NewEncoder(hb)
	enc.SetIndent("", "  ")
	if err := enc.Encode(head); err != nil {
		return fmt.Errorf("jobs: result of sweep %q cannot be encoded: %w", head.ID, err)
	}
	buf = hb.Bytes()
	if len(results) > 0 {
		buf = buf[:len(buf)-len(emptyTail)]
		for i, res := range results {
			if i == 0 {
				buf = append(buf, '[')
			} else {
				buf = append(buf, ',')
			}
			buf = append(buf, "\n    {\n      \"index\": "...)
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = appendResult(buf, res, metas[i], 3)
			buf = append(buf, "\n    }"...)
			if len(buf) >= flushBytes {
				if _, err := w.Write(buf); err != nil {
					return nil
				}
				buf = buf[:0]
			}
		}
		buf = append(buf, "\n  ]\n}\n"...)
	}
	_, _ = w.Write(buf)
	return nil
}
