package obs

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzParseExposition feeds arbitrary text to the exposition parser the
// process tests and the benchmark read every counter through. It must
// return an error or families, never panic. The committed corpus is the
// exposition of seedRegistry (see TestExpositionSeedCorpus).
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, body string) {
		ParseExposition(body) // an error is an answer too
	})
}

// seedRegistry holds every instrument kind WriteText renders — a counter
// with and without labels, a gauge, a GaugeFunc, histograms with and
// without labels, and per-worker gauges labelled as a dispatcher's are —
// with escapes in a help text and a label value, and observations in
// every counter and histogram.
func seedRegistry() *Registry {
	r := NewRegistry()
	requests := r.Counter("seed_requests_total", "Requests served.")
	errs := r.Counter("seed_errors_total", "Errors by code.", Label{Name: "code", Value: "500"})
	temp := r.Gauge("seed_temperature", "A \"gauge\" with a \\ and\na newline in its help.")
	r.GaugeFunc("seed_queue_len", "Jobs waiting.", func() float64 { return 3 })
	workers := []string{"127.0.0.1:8081", "odd \"worker\"\\name\non two lines"}
	for i, w := range workers {
		lbl := Label{Name: "worker", Value: w}
		r.GaugeFunc("seed_worker_healthy", "1 while the worker takes new jobs.", func() float64 { return float64(1 - i) }, lbl)
		r.Gauge("seed_worker_outstanding", "Jobs in flight on the worker.", lbl).Set(float64(2 * (i + 1)))
	}
	lat := r.Histogram("seed_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	stage := r.Histogram("seed_stage_seconds", "Stage latency.", nil, Label{Name: "stage", Value: "compile"})
	requests.Add(7)
	errs.Inc()
	temp.Set(-2.5)
	for _, d := range []time.Duration{500 * time.Microsecond, 10 * time.Millisecond, 3 * time.Second} {
		lat.Observe(d)
		stage.Observe(d / 7)
	}
	return r
}

// TestExpositionSeedCorpus holds the committed corpus to seedRegistry's
// exposition and every value parsed from it to its instrument's value.
func TestExpositionSeedCorpus(t *testing.T) {
	r := seedRegistry()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseExposition", "registry"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "go test fuzz v1\nstring(" + strconv.Quote(b.String()) + ")\n"; string(raw) != want {
		t.Error("the committed seed is not seedRegistry's exposition; write it again from the registry")
	}
	fams, err := ParseExposition(b.String())
	if err != nil {
		t.Fatalf("the seed does not parse: %v\n%s", err, b.String())
	}
	checkInstruments(t, r, fams)
}

// checkInstruments requires fams to hold exactly r's samples, each with
// its instrument's value.
func checkInstruments(t *testing.T, r *Registry, fams []Family) {
	t.Helper()
	key := func(name string, labels []Label) string {
		labels = slices.Clone(labels)
		slices.SortFunc(labels, func(a, b Label) int { return strings.Compare(a.Name, b.Name) })
		return name + renderLabels(labels, "")
	}
	got := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			got[key(s.Name, s.Labels)] = s.Value
		}
	}
	wanted := 0
	want := func(name string, labels []Label, v float64) {
		wanted++
		if g, ok := got[key(name, labels)]; !ok || g != v {
			t.Errorf("%s%v = %v (present %v), want %v", name, labels, g, ok, v)
		}
	}
	le := func(m *metric, bound string) []Label {
		return append(slices.Clone(m.labels), Label{Name: "le", Value: bound})
	}
	for _, m := range r.order {
		switch m.kind {
		case kindCounter:
			want(m.name, m.labels, float64(m.counter.Value()))
		case kindGauge:
			want(m.name, m.labels, m.gauge.Value())
		case kindGaugeFunc:
			want(m.name, m.labels, m.fn())
		case kindHistogram:
			h, cum := m.hist, uint64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				want(m.name+"_bucket", le(m, formatFloat(bound)), float64(cum))
			}
			want(m.name+"_bucket", le(m, "+Inf"), float64(h.Count()))
			want(m.name+"_sum", m.labels, h.Sum())
			want(m.name+"_count", m.labels, float64(h.Count()))
		}
	}
	if len(got) != wanted {
		t.Errorf("parsed %d samples, the registry renders %d", len(got), wanted)
	}
}
