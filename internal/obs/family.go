package obs

import (
	"fmt"
	"strconv"
)

// A family is the bounded-cardinality form of a labeled instrument: one
// label name whose complete value set is declared at registration, never
// extended afterwards. Every child is created eagerly, so hot paths index
// a pre-resolved slice (At) with no lock, no map lookup, and no
// allocation — the shape the per-kernel simulator instruments need. The
// fixed enum is what keeps the /metrics exposition bounded; the obsconv
// analyzer rejects families whose value set is not a literal, so a job or
// trace ID can never leak in as a label value.

// maxFamilyValues bounds a family's cardinality. A fixed enum larger than
// this is almost certainly a dynamic value set in disguise.
const maxFamilyValues = 32

// CounterFamily is a set of counters sharing one name, split by a fixed
// single-label enum. Obtain one from Registry.CounterFamily.
type CounterFamily struct {
	label string
	index map[string]int
	kids  []*Counter
}

// CounterFamily registers name with one child counter per enum value
// under the given label. The value set is fixed: unknown values panic in
// With, and the set cannot grow after registration.
func (r *Registry) CounterFamily(name, help, label string, values []string) *CounterFamily {
	checkFamilyValues(name, values)
	f := &CounterFamily{
		label: label,
		index: make(map[string]int, len(values)),
		kids:  make([]*Counter, len(values)),
	}
	for i, v := range values {
		f.index[v] = i
		f.kids[i] = r.Counter(name, help, Label{Name: label, Value: v})
	}
	return f
}

// At returns the child for enum ordinal i — the zero-cost accessor for
// callers that know their ordinal at compile time (the simulator's
// kernel-kind instruments).
func (f *CounterFamily) At(i int) *Counter { return f.kids[i] }

// With returns the child for the given enum value, panicking on a value
// outside the registered set.
func (f *CounterFamily) With(value string) *Counter {
	i, ok := f.index[value]
	if !ok {
		panic("obs: counter family " + f.label + " has no value " + strconv.Quote(value))
	}
	return f.kids[i]
}

// HistogramFamily is a set of histograms sharing one name and bucket
// layout, split by a fixed single-label enum. Obtain one from
// Registry.HistogramFamily.
type HistogramFamily struct {
	label string
	index map[string]int
	kids  []*Histogram
}

// HistogramFamily registers name with one child histogram per enum value
// under the given label (nil buckets = DefBuckets).
func (r *Registry) HistogramFamily(name, help string, buckets []float64, label string, values []string) *HistogramFamily {
	checkFamilyValues(name, values)
	f := &HistogramFamily{
		label: label,
		index: make(map[string]int, len(values)),
		kids:  make([]*Histogram, len(values)),
	}
	for i, v := range values {
		f.index[v] = i
		f.kids[i] = r.Histogram(name, help, buckets, Label{Name: label, Value: v})
	}
	return f
}

// At returns the child for enum ordinal i.
func (f *HistogramFamily) At(i int) *Histogram { return f.kids[i] }

// With returns the child for the given enum value, panicking on a value
// outside the registered set.
func (f *HistogramFamily) With(value string) *Histogram {
	i, ok := f.index[value]
	if !ok {
		panic("obs: histogram family " + f.label + " has no value " + strconv.Quote(value))
	}
	return f.kids[i]
}

func checkFamilyValues(name string, values []string) {
	if len(values) == 0 {
		panic("obs: family " + name + " registered with no values")
	}
	if len(values) > maxFamilyValues {
		panic(fmt.Sprintf("obs: family %s has %d values (max %d) — labels must be a small fixed enum", name, len(values), maxFamilyValues))
	}
	seen := map[string]bool{}
	for _, v := range values {
		if v == "" {
			panic("obs: family " + name + " has an empty label value")
		}
		if seen[v] {
			panic("obs: family " + name + " repeats label value " + strconv.Quote(v))
		}
		seen[v] = true
	}
}
