package result

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/qdt"
	"repro/internal/qop"
)

func isingReg() *qdt.DataType { return qdt.NewIsingVars("ising_vars", "s", 4) }

func TestDecodeCountsIdentitySchema(t *testing.T) {
	reg := isingReg()
	schema := qop.DefaultResultSchema(reg.ID, reg.Width, "AS_BOOL", "LSB_0")
	counts := map[uint64]int{5: 700, 10: 300}
	entries, err := DecodeCounts(counts, schema, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	// Index 5 = bits 1010 carrier-first (the paper's reported string).
	if entries[0].Index != 5 || entries[0].Bitstring != "1010" || entries[0].Count != 700 {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].Index != 10 || entries[1].Bitstring != "0101" {
		t.Errorf("entry 1 = %+v", entries[1])
	}
	if entries[0].Value.Bools[0] != true || entries[0].Value.Bools[1] != false {
		t.Errorf("decoded bools = %v", entries[0].Value.Bools)
	}
}

func TestDecodeCountsPermutedClbits(t *testing.T) {
	// clbit 0 carries register bit 3, clbit 1 bit 2, etc. (reversed).
	reg := isingReg()
	schema := &qop.ResultSchema{
		Basis: "Z", Datatype: "AS_BOOL", BitSignificance: "LSB_0",
		ClbitOrder: []string{"ising_vars[3]", "ising_vars[2]", "ising_vars[1]", "ising_vars[0]"},
	}
	// Classical value 0b0001: clbit 0 set -> register bit 3 set -> index 8.
	entries, err := DecodeCounts(map[uint64]int{1: 10}, schema, reg)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Index != 8 || entries[0].Bitstring != "0001" {
		t.Errorf("permuted decode = %+v", entries[0])
	}
}

func TestDecodeCountsPhase(t *testing.T) {
	reg := qdt.NewPhaseRegister("reg_phase", "phase", 10)
	schema := qop.DefaultResultSchema(reg.ID, reg.Width, "AS_PHASE", "LSB_0")
	entries, err := DecodeCounts(map[uint64]int{512: 5}, schema, reg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(entries[0].Value.Float-0.5) > 1e-12 {
		t.Errorf("phase = %v, want 0.5 turns", entries[0].Value.Float)
	}
}

func TestDecodeCountsMSB0(t *testing.T) {
	reg := qdt.New("r", "r", 3, qdt.IntRegister, qdt.AsInt)
	schema := qop.DefaultResultSchema("r", 3, "AS_INT", "MSB_0")
	// Register bit 0 is now most significant: clbit pattern 001 (bit 0
	// set) -> index 4.
	entries, err := DecodeCounts(map[uint64]int{1: 1}, schema, reg)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Value.Int != 4 {
		t.Errorf("MSB_0 decode = %d, want 4", entries[0].Value.Int)
	}
	if entries[0].Bitstring != "100" {
		t.Errorf("carrier string = %q, want 100", entries[0].Bitstring)
	}
}

func TestDecodeCountsErrors(t *testing.T) {
	reg := isingReg()
	if _, err := DecodeCounts(map[uint64]int{}, nil, reg); err == nil {
		t.Error("nil schema accepted")
	}
	bad := qop.DefaultResultSchema("other", reg.Width, "AS_BOOL", "LSB_0")
	if _, err := DecodeCounts(map[uint64]int{}, bad, reg); err == nil {
		t.Error("mismatched schema accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Entries: []Entry{
		{Index: 5, Count: 700, Bitstring: "1010"},
		{Index: 10, Count: 300, Bitstring: "0101"},
		{Index: 0, Count: 700, Bitstring: "0000"},
	}}
	top, err := r.Top()
	if err != nil {
		t.Fatal(err)
	}
	// Tie at 700: lowest index wins.
	if top.Index != 0 {
		t.Errorf("Top = %+v", top)
	}
	r.Sort()
	if r.Entries[0].Index != 0 || r.Entries[1].Index != 5 || r.Entries[2].Index != 10 {
		t.Errorf("Sort order: %v %v %v", r.Entries[0].Index, r.Entries[1].Index, r.Entries[2].Index)
	}
	mean := r.Expectation(func(e Entry) float64 { return float64(e.Index) })
	want := (5.0*700 + 10*300 + 0) / 1700
	if math.Abs(mean-want) > 1e-12 {
		t.Errorf("Expectation = %v, want %v", mean, want)
	}
	empty := &Result{}
	if _, err := empty.Top(); err == nil {
		t.Error("empty Top succeeded")
	}
	if empty.Expectation(func(Entry) float64 { return 1 }) != 0 {
		t.Error("empty Expectation nonzero")
	}
}

// TestDecodeCountsManyOutcomes decodes a few hundred outcomes of a
// 14-carrier register through a permuted schema and checks each entry
// against its own index — the bit scratch and the bitstrings' backing
// storage are shared across outcomes, and nothing may leak from one to the
// next — and that the decode allocates once per outcome (its typed value),
// not three times.
func TestDecodeCountsManyOutcomes(t *testing.T) {
	reg := qdt.NewIsingVars("ising_vars", "s", 14)
	schema := qop.DefaultResultSchema(reg.ID, reg.Width, "AS_SPIN", "LSB_0")
	for i, j := 0, len(schema.ClbitOrder)-1; i < j; i, j = i+1, j-1 { // clbit cb carries register bit 13-cb
		schema.ClbitOrder[i], schema.ClbitOrder[j] = schema.ClbitOrder[j], schema.ClbitOrder[i]
	}
	counts := map[uint64]int{}
	for k := uint64(0); len(counts) < 254; k++ {
		counts[k*2654435761%(1<<14)] = int(k) + 1
	}
	entries, err := DecodeCounts(counts, schema, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(counts) {
		t.Fatalf("%d entries for %d outcomes", len(entries), len(counts))
	}
	for _, e := range entries {
		var key uint64 // the classical value this entry came from
		for bit := 0; bit < 14; bit++ {
			key |= (e.Index >> bit & 1) << (13 - bit)
		}
		if want := reg.BitstringLSBFirst(e.Index); e.Bitstring != want || e.Count != counts[key] || len(e.Value.Spins) != 14 {
			t.Fatalf("index %d: bitstring %q (want %q), count %d (want %d), value %+v", e.Index, e.Bitstring, want, e.Count, counts[key], e.Value)
		}
		for bit, s := range e.Value.Spins {
			if want := 2*int8(e.Index>>bit&1) - 1; s != want {
				t.Fatalf("index %d: spin %d is %d, want %d", e.Index, bit, s, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeCounts(counts, schema, reg); err != nil {
			t.Fatal(err)
		}
	})
	// One value slice per outcome, plus what does not grow with the outcomes
	// (parsing the schema's 14 bit references twice, the sort, five slices);
	// three per outcome was 865.
	if bound := float64(len(counts) * 3 / 2); allocs > bound {
		t.Errorf("DecodeCounts of %d outcomes allocates %.0f times, want <= %.0f", len(counts), allocs, bound)
	}
}

// refDecodeCounts is DecodeCounts as it decoded before the per-clbit
// shift table: the register bits of each key in a scratch slice, turned
// into an index by IndexFromBits and decoded by Decode, one typed value
// allocated per outcome. TestDecodeCountsMatchesReference holds the
// table to it.
func refDecodeCounts(counts map[uint64]int, schema *qop.ResultSchema, reg *qdt.DataType) ([]Entry, error) {
	if err := schema.Validate(reg.ID, reg.Width); err != nil {
		return nil, err
	}
	shadow := *reg
	shadow.MeasurementSemantics = qdt.MeasurementSemantics(schema.Datatype)
	shadow.BitOrder = qdt.BitOrder(schema.BitSignificance)
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
	entries := make([]Entry, 0, len(keys))
	bits := make([]uint8, reg.Width)
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
		var text []byte
		for _, b := range bits {
			text = append(text, '0'+b)
		}
		entries = append(entries, Entry{Bitstring: string(text), Index: k, Value: value, Count: counts[key]})
	}
	return entries, nil
}

// refSort is Result.Sort as a stable sort of whole entries.
func refSort(entries []Entry) {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Index < entries[j].Index
	})
}

// TestDecodeCountsMatchesReference decodes random counts under every
// datatype (AS_INT and AS_FIXED signed and unsigned), both significance
// orders and identity, reversed and shuffled clbit orders, with keys that
// carry bits above the register, and holds the entries — before and after
// Sort — to the reference decode and a stable sort of whole entries.
func TestDecodeCountsMatchesReference(t *testing.T) {
	type kind struct {
		sem    qdt.MeasurementSemantics
		signed bool
	}
	kinds := []kind{
		{qdt.AsInt, false}, {qdt.AsInt, true}, {qdt.AsBool, false}, {qdt.AsPhase, false},
		{qdt.AsSpin, false}, {qdt.AsFixed, false}, {qdt.AsFixed, true},
	}
	r := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 5, 12} {
		for _, k := range kinds {
			for _, order := range []string{"LSB_0", "MSB_0"} {
				for _, clbits := range []string{"identity", "reversed", "shuffled"} {
					name := fmt.Sprintf("width=%d %s signed=%v %s %s", width, k.sem, k.signed, order, clbits)
					reg := qdt.New("r", "r", width, qdt.FixedPoint, k.sem)
					reg.Signed, reg.FractionBits, reg.PhaseScale = k.signed, width/2, fmt.Sprintf("1/%d", 1<<width)
					schema := qop.DefaultResultSchema("r", width, string(k.sem), order)
					switch clbits {
					case "reversed":
						slices.Reverse(schema.ClbitOrder)
					case "shuffled":
						r.Shuffle(width, func(i, j int) {
							schema.ClbitOrder[i], schema.ClbitOrder[j] = schema.ClbitOrder[j], schema.ClbitOrder[i]
						})
					}
					// Few distinct counts, so (count, index) ties are
					// common; keys past the register's clbits decode to
					// the same index as their low bits.
					counts := map[uint64]int{}
					for range 3 << width {
						counts[r.Uint64()&(1<<(width+1)-1)] = 1 + r.Intn(4)
					}
					got, err := DecodeCounts(counts, schema, reg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := refDecodeCounts(counts, schema, reg)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: decoded\n%+v\nreference\n%+v", name, got, want)
					}
					res := &Result{Entries: got}
					res.Sort()
					refSort(want)
					if !reflect.DeepEqual(res.Entries, want) {
						t.Fatalf("%s: sorted\n%+v\nreference\n%+v", name, res.Entries, want)
					}
				}
			}
		}
	}
}

// TestSortIsStable sorts entries whose (count, index) pairs repeat, told
// apart only by their bitstrings, in many shuffled orders: Sort must keep
// each tie in its input order, as a stable sort does, and leave a sorted
// slice as it is.
func TestSortIsStable(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Index: uint64(r.Intn(4)), Count: r.Intn(3), Bitstring: fmt.Sprint(i)}
		}
		want := slices.Clone(entries)
		refSort(want)
		res := &Result{Entries: entries}
		res.Sort()
		if !reflect.DeepEqual(res.Entries, want) {
			t.Fatalf("trial %d: sorted\n%+v\nstable reference\n%+v", trial, res.Entries, want)
		}
		res.Sort()
		if !reflect.DeepEqual(res.Entries, want) {
			t.Fatalf("trial %d: a second Sort moved entries", trial)
		}
	}
}
