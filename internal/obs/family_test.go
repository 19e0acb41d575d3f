package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterFamilyChildrenAndExposition(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("fam_ops_total", "Ops by kind.", "kind", []string{"alpha", "beta", "gamma"})
	f.With("alpha").Add(3)
	f.At(1).Inc() // beta
	if f.With("beta") != f.At(1) {
		t.Fatal("With and At disagree on the beta child")
	}
	fam := findFamily(t, mustParse(t, r), "fam_ops_total")
	if fam.Type != "counter" {
		t.Fatalf("type = %q, want counter", fam.Type)
	}
	if v, ok := fam.Value(Label{Name: "kind", Value: "alpha"}); !ok || v != 3 {
		t.Fatalf("alpha = %v,%v want 3,true", v, ok)
	}
	if v, ok := fam.Value(Label{Name: "kind", Value: "beta"}); !ok || v != 1 {
		t.Fatalf("beta = %v,%v want 1,true", v, ok)
	}
	if v, ok := fam.Value(Label{Name: "kind", Value: "gamma"}); !ok || v != 0 {
		t.Fatalf("gamma = %v,%v want 0,true (eager child)", v, ok)
	}
}

func TestHistogramFamilyObserve(t *testing.T) {
	r := NewRegistry()
	f := r.HistogramFamily("fam_lat_seconds", "Latency by kind.", []float64{0.001, 1}, "kind", []string{"fast", "slow"})
	f.With("fast").Observe(100 * time.Microsecond)
	f.At(1).Observe(10 * time.Millisecond) // slow
	fam := findFamily(t, mustParse(t, r), "fam_lat_seconds")
	if fam.Type != "histogram" {
		t.Fatalf("type = %q, want histogram", fam.Type)
	}
	for _, kind := range []string{"fast", "slow"} {
		if got := histCount(t, fam, kind); got != 1 {
			t.Fatalf("%s count = %v, want 1", kind, got)
		}
	}
}

// histCount digs the _count sample for one label value out of a parsed
// histogram family.
func histCount(t *testing.T, fam *Family, kind string) float64 {
	t.Helper()
	for _, s := range fam.Samples {
		if strings.HasSuffix(s.Name, "_count") && s.Label("kind") == kind {
			return s.Value
		}
	}
	t.Fatalf("no _count sample for kind=%s", kind)
	return 0
}

func TestFamilyUnknownValuePanics(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("fam_panic_total", "Ops.", "kind", []string{"known"})
	defer func() {
		if recover() == nil {
			t.Fatal("With on an unknown value did not panic")
		}
	}()
	f.With("unknown")
}

func TestFamilyRegistrationRejectsBadEnums(t *testing.T) {
	cases := []struct {
		name   string
		values []string
	}{
		{"empty set", nil},
		{"empty value", []string{"ok", ""}},
		{"duplicate value", []string{"dup", "dup"}},
		{"oversized enum", func() []string {
			vs := make([]string, maxFamilyValues+1)
			for i := range vs {
				vs[i] = fmt.Sprintf("v%02d", i)
			}
			return vs
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s was accepted", tc.name)
				}
			}()
			r.CounterFamily("fam_bad_total", "Ops.", "kind", tc.values)
		})
	}
}

// TestFamilyConcurrentRegistrationAndObservation proves (under -race)
// that racing registrations of the same family share children through
// the registry, and racing observations on those children never lose an
// increment.
func TestFamilyConcurrentRegistrationAndObservation(t *testing.T) {
	r := NewRegistry()
	values := []string{"a", "b", "c"}
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := r.CounterFamily("fam_race_total", "Ops.", "kind", values)
			h := r.HistogramFamily("fam_race_seconds", "Lat.", nil, "kind", values)
			for i := 0; i < perG; i++ {
				f.At(i % len(values)).Inc()
				h.With(values[(g+i)%len(values)]).Observe(time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	fams := mustParse(t, r)
	var total float64
	for _, v := range values {
		n, ok := findFamily(t, fams, "fam_race_total").Value(Label{Name: "kind", Value: v})
		if !ok {
			t.Fatalf("no sample for %s", v)
		}
		total += n
	}
	if want := float64(goroutines * perG); total != want {
		t.Fatalf("counter total = %v, want %v (lost increments under racing registration)", total, want)
	}
	var hcount float64
	for _, v := range values {
		hcount += histCount(t, findFamily(t, fams, "fam_race_seconds"), v)
	}
	if want := float64(goroutines * perG); hcount != want {
		t.Fatalf("histogram count total = %v, want %v", hcount, want)
	}
}
