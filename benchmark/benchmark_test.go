package main

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty input must read NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestTailNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := tail(xs, 0.90, 10); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tail(xs, 0.99, 10); ok {
		t.Error("p99 of 100 samples has one sample beyond it and must not be reported")
	}
	if _, ok := tail(xs[:99], 0.90, 10); ok {
		t.Error("p90 of 99 samples has fewer than ten beyond it")
	}
}

func TestPhaseArithmetic(t *testing.T) {
	p := Phase{
		Clients: 1, Seconds: 4, CPUMS: 660,
		Samples: []Sample{
			{Start: 0.2, End: 0.6, Class: classGate, Units: 1},
			{Start: 0.6, End: 1.6, Class: classSweep, Units: 32},
			{Start: 3.5, End: 4.0, Class: classGate, Units: 1}, // completes while the phase drains
		},
	}
	if got := p.units(); got != 34 {
		t.Errorf("units = %v, want 34", got)
	}
	if got := p.rate(); got != 8.5 {
		t.Errorf("rate = %v units/s, want 8.5", got)
	}
	if got, want := p.cpuPerUnit(), 660.0/34; math.Abs(got-want) > 1e-12 {
		t.Errorf("CPU per unit = %v ms, want %v", got, want)
	}
	if got := p.latencies(classGate); len(got) != 2 || math.Abs(got[0]-400) > 1e-9 || math.Abs(got[1]-500) > 1e-9 {
		t.Errorf("gate latencies = %v, want [400 500]", got)
	}
	if got := p.latencies(""); len(got) != 3 {
		t.Errorf("pooled latencies hold %d samples, want 3", len(got))
	}
}

func TestSlowdown(t *testing.T) {
	at := func(compute, js float64) RefSample {
		return RefSample{ComputeMS: compute * refComputeNominalMS, JSONMS: js * refJSONNominalMS}
	}
	if got := slowdown([]RefSample{at(1, 1), at(1, 1), at(1, 1)}); math.Abs(got-1) > 1e-12 {
		t.Errorf("a machine at nominal speed reads %v, want 1", got)
	}
	// Each kind's typical time is the mean of its fastest four fifths, taken
	// kind by kind: of five samples the slowest is dropped, wherever it sits.
	samples := []RefSample{at(1.2, 9), at(9, 1.4), at(1.2, 1.4), at(1.0, 1.2), at(1.4, 1.6)}
	if got, want := slowdown(samples), (4.8/4+5.6/4)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("slowdown = %v, want %v", got, want)
	}
	if got := lowerMean([]float64{3, 1, 2}, 0.1); got != 1 {
		t.Errorf("at least one value is kept: lowerMean = %v, want 1", got)
	}
	if !math.IsNaN(slowdown(nil)) {
		t.Error("no samples must read NaN, so that the run reports no reading")
	}
}

func TestEndToEndReportDividesBySlowdown(t *testing.T) {
	ref := make([]RefSample, 5) // the fastest four read 1.5, the slowest is dropped
	for i := range ref {
		ref[i] = RefSample{ComputeMS: 1.5 * refComputeNominalMS, JSONMS: 1.5 * refJSONNominalMS}
	}
	ref[2] = RefSample{ComputeMS: 40, JSONMS: 40}
	phase := Phase{
		Clients: 1, Seconds: 1, CPUMS: 12, Ref: ref,
		Samples: []Sample{{Start: 0, End: 0.003, Units: 1}, {Start: 0.1, End: 0.106, Units: 1}, {Start: 0.2, End: 0.209, Units: 1}},
	}
	run := &LiveRun{SetupS: []float64{3, 1, 2}, SetupSlowdown: []float64{2, 1, 1}, Lone: phase}
	check := func(name string, want float64) {
		t.Helper()
		if got := endToEndReport(run).Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("latency_p50_ms", 6/1.5)
	check("cpu_ms_per_op", 4/1.5)
	check("setup_s", 1.5) // each set-up by its own slowdown: [1.5 1 2]
	// A hot-set duplicate costs CPU but is not among the executed ops.
	run.Lone.Samples = append(run.Lone.Samples, Sample{Start: 0.3, End: 0.3005, Class: classHit, Units: 1})
	check("latency_p50_ms", 6/1.5)
	check("cpu_ms_per_op", 3/1.5)
	run.Workload.TimerBound = true
	check("latency_p50_ms", 6) // what a timer sets is reported as measured
	check("setup_s", 2)
	check("cpu_ms_per_op", 3/1.5)
}

func TestMetricsDelta(t *testing.T) {
	before := `# TYPE store_journal_syncs_total counter
store_journal_syncs_total 10
# TYPE jobs_run_seconds histogram
jobs_run_seconds_bucket{le="0.1"} 2
jobs_run_seconds_bucket{le="+Inf"} 4
jobs_run_seconds_sum 1.5
jobs_run_seconds_count 4
# TYPE sim_kernels_total counter
sim_kernels_total{kind="gate1q"} 3
sim_kernels_total{kind="diag"} 4
`
	after := `# TYPE store_journal_syncs_total counter
store_journal_syncs_total 25
# TYPE jobs_run_seconds histogram
jobs_run_seconds_bucket{le="0.1"} 3
jobs_run_seconds_bucket{le="+Inf"} 9
jobs_run_seconds_sum 4
jobs_run_seconds_count 9
# TYPE sim_kernels_total counter
sim_kernels_total{kind="gate1q"} 5
sim_kernels_total{kind="diag"} 10
# TYPE jobs_rejected_total counter
jobs_rejected_total 2
`
	a, err := parseSnapshot(before)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseSnapshot(after)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"store_journal_syncs_total": 15,
		"jobs_run_seconds_sum":      2.5,
		"jobs_run_seconds_count":    5, // buckets are not folded into the count
		"sim_kernels_total":         8, // a labelled family sums over its label values
		"jobs_rejected_total":       2, // absent before reads 0
		"never_exposed_total":       0,
	} {
		if got := delta(a, b, name); got != want {
			t.Errorf("delta(%s) = %v, want %v", name, got, want)
		}
	}
	sum := Snapshot{}
	sum.add(a)
	sum.add(b)
	if sum["store_journal_syncs_total"] != 35 {
		t.Errorf("summing two processes gave %v, want 35", sum["store_journal_syncs_total"])
	}
	if _, err := parseSnapshot("not an exposition line\n"); err == nil {
		t.Error("a malformed exposition must fail the scrape")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "a.inner", Start: ms(15), End: ms(25), Parent: 1}, // nested: covers part of a only
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},       // overlaps a over [30,40)
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0},      // runs past the parent: clipped to [90,100)
		{Name: "d", Start: ms(35), End: ms(38), Parent: 0},       // inside a∪b: adds nothing
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 10), ms(10), ms(30), ms(30), ms(3)}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.op = 7
	err := tr.span("parent", func() error {
		tr.ended("callback", time.Microsecond)
		return tr.span("child", func() error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 3 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 {
		t.Fatalf("spans %+v are not one parent with two children", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("span %+v: wrong op or negative duration", s)
		}
	}
	if got := durationsUS(tr.spans, "callback"); len(got) != 1 || got[0] != 1 {
		t.Errorf("callback span lasts %v us, want [1]", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, map[string][]Span{"w": tr.spans}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedDeterminesOpList(t *testing.T) {
	list := func(name string, seed uint64, n int) [][]byte {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		g, err := newGenerator(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, op := range g.hot {
			out = append(out, op.Body)
		}
		// Draw out of order: op i must not depend on what was drawn before.
		for i := n - 1; i >= 0; i-- {
			op, err := g.Op(i)
			if err != nil {
				t.Fatal(err)
			}
			if op.Index != i {
				t.Fatalf("op %d carries index %d", i, op.Index)
			}
			out = append(out, op.Body)
		}
		return out
	}
	same := func(a, b [][]byte) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	for _, w := range workloads {
		n := 40
		if !w.Mix {
			n = 3
		}
		if !same(list(w.Name, 1, n), list(w.Name, 1, n)) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		if same(list(w.Name, 1, n), list(w.Name, 2, n)) {
			t.Errorf("%s: different seeds gave the same inputs", w.Name)
		}
	}
	if !same(list("serve_mix", 5, 40), list("dispatch_mix", 5, 40)) {
		t.Error("dispatch_mix must issue the identical op list as serve_mix")
	}
}

func TestMixShape(t *testing.T) {
	w, _ := findWorkload("serve_mix")
	g, err := newGenerator(w, 9)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	seen := map[string]bool{}
	for i := 0; i < 2*len(mixPattern); i++ {
		op, err := g.Op(i)
		if err != nil {
			t.Fatal(err)
		}
		counts[op.Class]++
		if op.Hot >= 0 {
			if !bytes.Equal(op.Body, g.hot[op.Hot].Body) {
				t.Errorf("op %d is not an exact duplicate of hot-set bundle %d", i, op.Hot)
			}
			continue
		}
		if seen[string(op.Body)] {
			t.Errorf("op %d repeats an earlier unique op: a stale cache could answer it", i)
		}
		seen[string(op.Body)] = true
		if (op.Class == classAnneal) != (op.Edges != nil) {
			t.Errorf("op %d (%s): only anneal ops carry their graph", i, op.Class)
		}
	}
	want := map[string]int{classGate: 22, classHit: 10, classAnneal: 4, classNoisy: 4}
	for class, n := range want {
		if counts[class] != n {
			t.Errorf("two cycles hold %d %s ops, want %d", counts[class], class, n)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// comm may hold spaces and parentheses; utime=150 and stime=50 ticks.
	stat := "4242 (qml serve) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 5 0 1234 1 2 3"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2000 {
		t.Errorf("CPU = %v ms, want 2000", got)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("a malformed stat line must fail")
	}
}

func TestKernelBytes(t *testing.T) {
	const n = 10
	full := 2 * 8 * 1024 * 2.0
	for _, c := range []struct {
		kind    string
		support uint64
		want    float64
	}{
		{"gate1q", 0b1, full},
		{"diag", 0b1111, full},
		{"permute", 0b11, full / 2},    // CX: the control-set half
		{"permute", 0b111, full / 4},   // CCX
		{"ctrlphase", 0b11, full / 4},  // CZ: the all-ones quarter
		{"ctrlphase", 0b111, full / 8}, // CCZ
	} {
		if got := kernelBytes(c.kind, c.support, n); got != c.want {
			t.Errorf("kernelBytes(%s, %b) = %v, want %v", c.kind, c.support, got, c.want)
		}
	}
}

func TestCheckReply(t *testing.T) {
	w, _ := findWorkload("serve_mix")
	g, err := newGenerator(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	energy := func(v float64) *float64 { return &v }
	good := []Entry{{Bitstring: "01", Index: 2, Count: 600}, {Bitstring: "10", Index: 1, Count: 424}}
	hot := make([]Reply, hotSetSize)
	for k := range hot {
		hot[k] = Reply{Points: [][]Entry{good}}
	}

	gate := Op{Class: classGate, Shots: 1024, Hot: -1}
	if err := checkReply(gate, Reply{Points: [][]Entry{good}}, hot); err != nil {
		t.Errorf("a correct reply failed: %v", err)
	}
	short := []Entry{{Bitstring: "01", Index: 2, Count: 600}}
	if checkReply(gate, Reply{Points: [][]Entry{short}}, hot) == nil {
		t.Error("counts that do not sum to the shots passed")
	}
	if checkReply(Op{Class: classSweep, Shots: 1024, Points: 2, Hot: -1}, Reply{Points: [][]Entry{good}}, hot) == nil {
		t.Error("a sweep reply with a missing point passed")
	}

	dup := g.hot[4]
	if err := checkReply(dup, Reply{Points: [][]Entry{good}, CacheHit: true}, hot); err != nil {
		t.Errorf("a correct duplicate failed: %v", err)
	}
	if checkReply(dup, Reply{Points: [][]Entry{good}}, hot) == nil {
		t.Error("a duplicate that was not a cache hit passed")
	}
	other := []Entry{{Bitstring: "01", Index: 2, Count: 601}, {Bitstring: "10", Index: 1, Count: 423}}
	if checkReply(dup, Reply{Points: [][]Entry{other}, CacheHit: true}, hot) == nil {
		t.Error("a duplicate whose entries differ from the first result passed")
	}
	if err := checkReply(dup, Reply{Points: [][]Entry{other}}, nil); err != nil {
		t.Errorf("the preload itself is not held to the hot-set contract: %v", err)
	}

	var anneal Op
	for i := 0; anneal.Edges == nil; i++ {
		if anneal, err = g.Op(i); err != nil {
			t.Fatal(err)
		}
	}
	bits := "010101010101"
	want := maxCutEnergy(anneal, bits)
	ok := Reply{Points: [][]Entry{{{Bitstring: bits, Count: annealReads, Energy: energy(want)}}}}
	if err := checkReply(anneal, ok, hot); err != nil {
		t.Errorf("a correct anneal reply failed: %v", err)
	}
	wrong := Reply{Points: [][]Entry{{{Bitstring: bits, Count: annealReads, Energy: energy(want + 2)}}}}
	if checkReply(anneal, wrong, hot) == nil {
		t.Error("an anneal entry with the wrong energy passed")
	}
	if maxCutEnergy(anneal, "000000000000") != float64(len(anneal.Edges)) {
		t.Error("the all-aligned configuration must cost one per edge")
	}
}

func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, spec.Workloads[i].Name, w.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the code reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.Name || spec.PerLayer[i].Unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s [%s], the code %s [%s]", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, m.Name, m.Unit)
		}
	}
	phase := Phase{Seconds: 1, CPUMS: 8, Samples: []Sample{{End: 0.003, Units: 2}}, Ref: []RefSample{{ComputeMS: 2, JSONMS: 1}}}
	got := endToEndReport(&LiveRun{SetupS: []float64{1}, SetupSlowdown: []float64{1}, Lone: phase}).Metrics
	if len(got) != len(spec.EndToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the code reports %d", len(spec.EndToEnd), len(got))
	}
	for _, m := range spec.EndToEnd {
		if r, ok := got[m.Name]; !ok || r.Unit != m.Unit {
			t.Errorf("end-to-end metric %s [%s] of BENCHMARK.json is reported as %+v", m.Name, m.Unit, r)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("a rate falling 100 → 90 worsens by %v, want 0.1", got)
	}
	if got := worsening(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("a latency rising 10 → 11 worsens by %v, want 0.1", got)
	}
	if worsening(10, 9, "lower") >= 0 {
		t.Error("an improvement must read negative")
	}
}
