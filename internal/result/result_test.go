package result

import (
	"math"
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
