package jsonenc

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// The reference is encoding/json itself: whatever it prints for a string
// or a finite float64, these append.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "0101", "gate.statevector", `quote " and \ slash`, "<script>&amp;</script>",
		"\x00\x01\x07\b\t\n\v\f\r\x1f\x7f", "café 世界 \U0001f600", "sep\u2028\u2029end",
		"\xff", "a\xc3", "\xe2\x80", "ok\xed\xa0\x80ok", "\xf4\x90\x80\x80", "tail\xc3\xa9",
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rnd.Intn(12))
		for j := range b {
			// Mostly the interesting low and high ranges, some plain ASCII.
			switch rnd.Intn(3) {
			case 0:
				b[j] = byte(rnd.Intn(0x30))
			case 1:
				b[j] = byte(0x80 + rnd.Intn(0x80))
			default:
				b[j] = byte(0x20 + rnd.Intn(0x60))
			}
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json prints %s", s, got[1:], want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.25, -4, 1e-6, 9.99e-7, 1e-7, -1.234e-9, 1e20, 1e21, -1e21, 1.5e300,
		123456789012345678, 1e-100, math.SmallestNonzeroFloat64, math.MaxFloat64, 5e-324, 2.2250738585072014e-308,
		float64(math.MaxInt64), 100, 1e5, 12345.678,
	}
	rnd := rand.New(rand.NewSource(2))
	for len(cases) < 4000 {
		if f := math.Float64frombits(rnd.Uint64()); Finite(f) {
			cases = append(cases, f, float64(float32(rnd.NormFloat64())))
		}
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, encoding/json prints %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Finite(f) {
			t.Errorf("Finite(%v) = true", f)
		}
		if _, err := json.Marshal(f); err == nil {
			t.Errorf("encoding/json accepts %v", f)
		}
	}
}
