package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatalf("get-or-create returned a different counter")
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestLabeledInstrumentsAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_reqs_total", "reqs", Label{Name: "code", Value: "200"})
	b := r.Counter("test_reqs_total", "reqs", Label{Name: "code", Value: "500"})
	if a == b {
		t.Fatalf("distinct label sets returned the same instrument")
	}
	a.Add(2)
	b.Inc()
	fams := mustParse(t, r)
	f := findFamily(t, fams, "test_reqs_total")
	if v, ok := f.Value(Label{Name: "code", Value: "200"}); !ok || v != 2 {
		t.Fatalf("code=200 sample = %v,%v want 2,true", v, ok)
	}
	if v, ok := f.Value(Label{Name: "code", Value: "500"}); !ok || v != 1 {
		t.Fatalf("code=500 sample = %v,%v want 1,true", v, ok)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_thing", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_thing", "x")
}

func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "lat", []float64{0.01, 0.1, 1})
	h.Observe(5 * time.Millisecond)   // → le=0.01
	h.Observe(10 * time.Millisecond)  // boundary: le semantics → le=0.01
	h.Observe(50 * time.Millisecond)  // → le=0.1
	h.Observe(500 * time.Millisecond) // → le=1
	h.Observe(3 * time.Second)        // → +Inf overflow
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 3.565; got != want {
		t.Fatalf("sum = %v s, want %v", got, want)
	}
	fams := mustParse(t, r)
	f := findFamily(t, fams, "test_latency_seconds")
	wantBuckets := map[string]float64{"0.01": 2, "0.1": 3, "1": 4, "+Inf": 5}
	for le, want := range wantBuckets {
		found := false
		for _, s := range f.Samples {
			if s.Name == "test_latency_seconds_bucket" && s.Label("le") == le {
				found = true
				if s.Value != want {
					t.Errorf("bucket le=%s = %v, want %v", le, s.Value, want)
				}
			}
		}
		if !found {
			t.Errorf("bucket le=%s missing", le)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{0.1, 0.2, 0.4, 0.8})
	for i := 0; i < 100; i++ {
		h.ObserveSeconds(0.15) // all in (0.1, 0.2]
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0.1 || p50 > 0.2 {
		t.Fatalf("p50 = %v, want within (0.1, 0.2]", p50)
	}
	// Interpolation: target at half the bucket's mass → bucket midpoint.
	if math.Abs(p50-0.15) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.15 (linear interpolation)", p50)
	}
	h.ObserveSeconds(99) // overflow clamps to highest bound
	if got := h.Quantile(0.9999); got != 0.8 {
		t.Fatalf("overflow quantile = %v, want clamp to 0.8", got)
	}
	empty := newHistogram(nil)
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "with\nnewline and \\backslash").Add(7)
	r.Gauge("test_b", "b", Label{Name: "path", Value: `quo"te\esc` + "\nnl"}).Set(1.25)
	r.GaugeFunc("test_c", "computed", func() float64 { return 42 })
	r.Histogram("test_d_seconds", "d", nil).Observe(3 * time.Millisecond)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(sb.String())
	if err != nil {
		t.Fatalf("ParseExposition on own output: %v\n%s", err, sb.String())
	}
	f := findFamily(t, fams, "test_b")
	if v, ok := f.Value(Label{Name: "path", Value: `quo"te\esc` + "\nnl"}); !ok || v != 1.25 {
		t.Fatalf("escaped label round-trip = %v,%v", v, ok)
	}
	if v, ok := findFamily(t, fams, "test_c").Value(); !ok || v != 42 {
		t.Fatalf("gauge func = %v,%v want 42,true", v, ok)
	}
}

func TestHandlerMergesRegistriesWithoutDuplicates(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("test_shared_total", "s").Add(1)
	b.Counter("test_shared_total", "s").Add(100) // shadowed by a
	b.Counter("test_only_b_total", "b").Add(2)
	RegisterRuntime(a)
	RegisterRuntime(a) // idempotent
	RegisterBuildInfo(a)
	srv := httptest.NewServer(Handler(a, b, a))
	defer srv.Close()
	body := httpGet(t, srv.URL)
	fams, err := ParseExposition(body)
	if err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, body)
	}
	if v, ok := findFamily(t, fams, "test_shared_total").Value(); !ok || v != 1 {
		t.Fatalf("shared counter = %v,%v want first-registry value 1", v, ok)
	}
	if _, ok := findFamily(t, fams, "test_only_b_total").Value(); !ok {
		t.Fatalf("second registry's unique family missing")
	}
	if v, ok := findFamily(t, fams, "go_goroutines").Value(); !ok || v < 1 {
		t.Fatalf("go_goroutines = %v,%v want >= 1", v, ok)
	}
	bi := findFamily(t, fams, "build_info")
	if v, ok := bi.Value(); !ok || v != 1 {
		t.Fatalf("build_info = %v,%v want 1,true", v, ok)
	}
	if bi.Samples[0].Label("go_version") == "" {
		t.Fatalf("build_info missing go_version label")
	}
}
