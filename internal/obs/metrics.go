package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram upper bounds, in seconds:
// exponential from 10µs to 10s so journal fsyncs, HTTP round-trips, and
// multi-second statevector sweeps all resolve to a few buckets rather
// than piling into the first or last one.
var DefBuckets = []float64{
	10e-6, 25e-6, 50e-6,
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3,
	10e-3, 25e-3, 50e-3,
	100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Counter is a monotonically increasing count. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value. Obtain one from Registry.Gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (compare-and-swap loop; fine off the hot path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency distribution. Observations index
// into cumulative-at-render buckets by upper bound (le semantics, like
// Prometheus); the sum is kept in exact integer nanoseconds so a long
// run loses nothing to float accumulation. Obtain one from
// Registry.Histogram.
type Histogram struct {
	bounds   []float64 // ascending upper bounds in seconds; +Inf implicit
	counts   []atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly ascending at %v", b[i]))
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(d.Nanoseconds())
}

// ObserveSeconds records one observation given in seconds.
func (h *Histogram) ObserveSeconds(s float64) {
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(s * 1e9))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNanos.Load()) / 1e9 }

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation inside the owning bucket — the same estimate Prometheus'
// histogram_quantile computes. Returns 0 with no observations; an
// estimate landing in the overflow bucket clamps to the highest bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(target-cum)/n
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one name=value pair attached to an instrument.
type Label struct {
	Name  string
	Value string
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label

	// Rendered label strings, computed once at registration so scrapes
	// never re-escape or re-join label sets: lbl is the plain set,
	// lblBuckets the per-bound sets (le included, +Inf last) for
	// histograms.
	lbl        string
	lblBuckets []string

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// Registry is a named set of instruments. Lookups are get-or-create:
// the same (name, labels) pair always yields the same instrument, and a
// name registered under one kind panics if re-requested as another.
// Registries are independent — tests give every pool its own so counters
// never bleed across fixtures — and Handler can serve several at once.
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]*metric
	order    []*metric
	kinds    map[string]metricKind
	onGather []func()

	// lastLen remembers the previous exposition's byte length so the next
	// scrape pre-sizes its buffer in one allocation instead of growing
	// through the doubling ladder (the /metrics churn fix).
	lastLen atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}, kinds: map[string]metricKind{}}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry. Library layers with no handle on
// a server's registry (the sim engine's stage histograms) register here;
// servers merge it into their /metrics via Handler.
func Default() *Registry { return defaultRegistry }

func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup returns the metric for (name, labels), creating it with mk on
// first use. Kind clashes are programming errors and panic.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, mk func() *metric) *metric {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name))
		}
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	key := metricKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s already registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	if k, ok := r.kinds[name]; ok && k != kind {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, requested as %s", name, k, kind))
	}
	m := mk()
	m.name, m.help, m.kind, m.labels = name, help, kind, sorted
	m.lbl = renderLabels(sorted, "")
	if m.hist != nil {
		m.lblBuckets = make([]string, len(m.hist.bounds)+1)
		for i, bound := range m.hist.bounds {
			m.lblBuckets[i] = renderLabels(sorted, formatFloat(bound))
		}
		m.lblBuckets[len(m.hist.bounds)] = renderLabels(sorted, "+Inf")
	}
	r.metrics[key] = m
	r.kinds[name] = kind
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter with the given name and labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func() *metric {
		return &metric{gauge: &Gauge{}}
	}).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. A second registration under the same name and labels replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.lookup(name, help, kindGaugeFunc, labels, func() *metric { return &metric{} })
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram with the given name, labels, and
// upper bounds (nil = DefBuckets), creating it on first use. Bounds are
// fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, func() *metric {
		return &metric{hist: newHistogram(buckets)}
	}).hist
}

// OnGather registers fn to run at the start of every scrape, before
// instruments render — the hook point batch sources (runtime/metrics)
// use to refresh their gauges.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	r.onGather = append(r.onGather, fn)
	r.mu.Unlock()
}

// WriteText renders the registry in Prometheus text exposition format
// (version 0.0.4), families sorted by name, after running OnGather hooks.
func (r *Registry) WriteText(w io.Writer) error {
	return r.writeText(w, map[string]bool{})
}

func (r *Registry) writeText(w io.Writer, seen map[string]bool) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.onGather...)
	ms := append([]*metric{}, r.order...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	var b strings.Builder
	b.Grow(int(r.lastLen.Load()) + 256)
	line := func(name, suffix, labels, value string) {
		b.WriteString(name)
		b.WriteString(suffix)
		b.WriteString(labels)
		b.WriteByte(' ')
		b.WriteString(value)
		b.WriteByte('\n')
	}
	last := ""
	for _, m := range ms {
		if m.name != last {
			if seen[m.name] {
				// A family already emitted by an earlier registry in a
				// merged Handler: drop it rather than produce an invalid
				// duplicate exposition.
				continue
			}
			seen[m.name] = true
			if m.help != "" {
				b.WriteString("# HELP ")
				b.WriteString(m.name)
				b.WriteByte(' ')
				b.WriteString(escapeHelp(m.help))
				b.WriteByte('\n')
			}
			b.WriteString("# TYPE ")
			b.WriteString(m.name)
			b.WriteByte(' ')
			b.WriteString(m.kind.String())
			b.WriteByte('\n')
			last = m.name
		}
		switch m.kind {
		case kindCounter:
			line(m.name, "", m.lbl, strconv.FormatUint(m.counter.Value(), 10))
		case kindGauge:
			line(m.name, "", m.lbl, formatFloat(m.gauge.Value()))
		case kindGaugeFunc:
			v := 0.0
			if m.fn != nil {
				v = m.fn()
			}
			line(m.name, "", m.lbl, formatFloat(v))
		case kindHistogram:
			h := m.hist
			cum := uint64(0)
			for i := range h.bounds {
				cum += h.counts[i].Load()
				line(m.name, "_bucket", m.lblBuckets[i], strconv.FormatUint(cum, 10))
			}
			// The overflow bucket renders as the total count so the +Inf
			// invariant holds even if observations raced the loop above.
			line(m.name, "_bucket", m.lblBuckets[len(h.bounds)], strconv.FormatUint(h.Count(), 10))
			line(m.name, "_sum", m.lbl, formatFloat(h.Sum()))
			line(m.name, "_count", m.lbl, strconv.FormatUint(h.Count(), 10))
		}
	}
	r.lastLen.Store(int64(b.Len()))
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// renderLabels formats a label set, appending le when non-empty (the
// histogram bucket case).
func renderLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Handler serves the merged exposition of the given registries (none =
// Default()) on any method. When a family name appears in several
// registries, the first registry wins — merged output is always a valid
// single exposition.
func Handler(regs ...*Registry) http.Handler {
	if len(regs) == 0 {
		regs = []*Registry{Default()}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		seen := map[string]bool{}
		emitted := map[*Registry]bool{}
		for _, r := range regs {
			if r == nil || emitted[r] {
				continue
			}
			emitted[r] = true
			if err := r.writeText(w, seen); err != nil {
				return
			}
		}
	})
}
