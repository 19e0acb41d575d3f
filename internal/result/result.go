// Package result implements the middle layer's result model: backend
// outputs decoded strictly through the operator's explicit result schema
// and the register's quantum data type — never through inference, which
// is the decoding discipline the paper's composability principle demands
// ("results need unambiguous decoding rules").
package result

import (
	"cmp"
	"fmt"
	"slices"

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
// ties of both by their current order, so it is stable and idempotent.
// It sorts a pointer-free row of (count, index, position) and then moves
// every entry once, along the cycles of the permutation the row spells:
// no entry is swapped twice.
func (r *Result) Sort() {
	type row struct {
		count int
		index uint64
		pos   int
	}
	rows := make([]row, len(r.Entries))
	for i, e := range r.Entries {
		rows[i] = row{e.Count, e.Index, i}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		if a.index != b.index {
			return cmp.Compare(a.index, b.index)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	// Slot i takes the entry at rows[i].pos. A placed slot's pos is set
	// to its own index, so each cycle is walked once.
	for i := range rows {
		if rows[i].pos == i {
			continue
		}
		first := r.Entries[i]
		j := i
		for rows[j].pos != i {
			next := rows[j].pos
			r.Entries[j] = r.Entries[next]
			rows[j].pos = j
			j = next
		}
		r.Entries[j] = first
		rows[j].pos = j
	}
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
// of the key) into decoded entries, in ascending key order, using the
// result schema's clbit→register-bit mapping and datatype. A key's bits
// above the register's clbits are ignored. The schema's clbit order is a
// permutation of the register's carriers, so one shift per clbit maps a
// key to its basis index, with the significance the datatype declares.
// All entries' bitstrings share one backing string, and an AS_BOOL or
// AS_SPIN register's flags or spins one backing slice, each entry's part
// capped at the register width.
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

	// Clbit cb carries register carrier carrier[cb], which sets index bit
	// shift[cb].
	w := reg.Width
	carrier := make([]int, w)
	shift := make([]uint, w)
	for cb, ref := range schema.ClbitOrder {
		_, bit, err := qop.ParseBitRef(ref)
		if err != nil {
			return nil, err
		}
		carrier[cb], shift[cb] = bit, uint(shadow.Significance(bit))
	}

	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)

	entries := make([]Entry, len(keys))
	text := make([]byte, len(keys)*w)
	var bools []bool
	var spins []int8
	switch shadow.MeasurementSemantics {
	case qdt.AsBool:
		bools = make([]bool, len(keys)*w)
	case qdt.AsSpin:
		spins = make([]int8, len(keys)*w)
	}
	for e, key := range keys {
		lo, hi := e*w, (e+1)*w
		// Carrier 0 first, regardless of significance order.
		line := text[lo:hi:hi]
		var k uint64
		for cb, s := range shift {
			bit := key >> uint(cb) & 1
			k |= bit << s
			line[carrier[cb]] = '0' + byte(bit)
		}
		var value qdt.Value
		var err error
		switch {
		case bools != nil:
			value, err = shadow.DecodeInto(k, bools[lo:hi:hi], nil)
		case spins != nil:
			value, err = shadow.DecodeInto(k, nil, spins[lo:hi:hi])
		default:
			value, err = shadow.Decode(k)
		}
		if err != nil {
			return nil, err
		}
		entries[e] = Entry{Index: k, Value: value, Count: counts[key]}
	}
	all := string(text)
	for i := range entries {
		entries[i].Bitstring = all[i*w : (i+1)*w]
	}
	return entries, nil
}
