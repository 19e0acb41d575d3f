// Package result implements the middle layer's result model: backend
// outputs decoded strictly through the operator's explicit result schema
// and the register's quantum data type — never through inference, which
// is the decoding discipline the paper's composability principle demands
// ("results need unambiguous decoding rules").
package result

import (
	"fmt"
	"sort"

	"repro/internal/qdt"
	"repro/internal/qop"
)

// Entry is one decoded outcome.
type Entry struct {
	// Bitstring renders the outcome with carrier 0 first — the form the
	// paper uses when reporting the §5 optimal cuts "1010" and "0101".
	Bitstring string
	// Index is the decoded basis-state index of the register.
	Index uint64
	// Value is the typed interpretation per the register's measurement
	// semantics (overridden by the schema's datatype).
	Value qdt.Value
	// Count is the number of shots/reads observing this outcome.
	Count int
	// Energy is the Ising energy of the configuration (anneal path only).
	Energy float64
	// HasEnergy reports whether Energy is meaningful.
	HasEnergy bool
}

// Result is a backend execution result.
type Result struct {
	Engine  string
	Samples int
	Entries []Entry
	// Meta carries engine-specific artifacts: transpile stats, embedding
	// info, communication plans, pulse durations.
	Meta map[string]any
}

// Sort orders entries by descending count, ties by ascending index, and
// is idempotent.
func (r *Result) Sort() {
	sort.SliceStable(r.Entries, func(i, j int) bool {
		if r.Entries[i].Count != r.Entries[j].Count {
			return r.Entries[i].Count > r.Entries[j].Count
		}
		return r.Entries[i].Index < r.Entries[j].Index
	})
}

// Top returns the most frequent entry.
func (r *Result) Top() (Entry, error) {
	if len(r.Entries) == 0 {
		return Entry{}, fmt.Errorf("result: empty result")
	}
	best := r.Entries[0]
	for _, e := range r.Entries[1:] {
		if e.Count > best.Count || (e.Count == best.Count && e.Index < best.Index) {
			best = e
		}
	}
	return best, nil
}

// Expectation returns the count-weighted mean of f over the entries —
// the §5 "expected cut" evaluator.
func (r *Result) Expectation(f func(Entry) float64) float64 {
	total := 0.0
	n := 0
	for _, e := range r.Entries {
		total += f(e) * float64(e.Count)
		n += e.Count
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// DecodeCounts converts raw classical-register counts (clbit cb = bit cb
// of the key) into decoded entries using the result schema's clbit→
// register-bit mapping and datatype.
func DecodeCounts(counts map[uint64]int, schema *qop.ResultSchema, reg *qdt.DataType) ([]Entry, error) {
	if schema == nil {
		return nil, fmt.Errorf("result: nil result schema")
	}
	if err := schema.Validate(reg.ID, reg.Width); err != nil {
		return nil, err
	}
	// Shadow register applying the schema's datatype and significance.
	shadow := *reg
	shadow.MeasurementSemantics = qdt.MeasurementSemantics(schema.Datatype)
	shadow.BitOrder = qdt.BitOrder(schema.BitSignificance)

	// clbit cb carries register bit bitOf[cb].
	bitOf := make([]int, len(schema.ClbitOrder))
	for cb, ref := range schema.ClbitOrder {
		_, bit, err := qop.ParseBitRef(ref)
		if err != nil {
			return nil, err
		}
		bitOf[cb] = bit
	}

	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// One scratch for the register bits of the outcome at hand (neither
	// IndexFromBits nor the rendering below keeps it; every iteration
	// rewrites the same positions, the rest stay zero) and one backing
	// string for all bitstrings, carved per entry.
	entries := make([]Entry, 0, len(keys))
	bits := make([]uint8, reg.Width)
	text := make([]byte, 0, len(keys)*reg.Width)
	for _, key := range keys {
		for cb := range bitOf {
			bits[bitOf[cb]] = uint8(key >> uint(cb) & 1)
		}
		k, err := shadow.IndexFromBits(bits)
		if err != nil {
			return nil, err
		}
		value, err := shadow.Decode(k)
		if err != nil {
			return nil, err
		}
		// Carrier 0 first, regardless of significance order.
		for _, b := range bits {
			text = append(text, '0'+b)
		}
		entries = append(entries, Entry{Index: k, Value: value, Count: counts[key]})
	}
	all := string(text)
	for i := range entries {
		entries[i].Bitstring = all[i*reg.Width : (i+1)*reg.Width]
	}
	return entries, nil
}
