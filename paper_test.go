package repro

// The paper's evaluation as one asserted table. Each row reproduces one
// quantity the paper states or its listings imply, computes it through the
// path a server runs — runtime.Submit (its entries and Meta),
// backend.RealizeCircuit/RealizeAnneal or runtime.EstimateAll — and holds
// it to a band:
//
//   - the paper's band, where the paper states one;
//   - for a deterministic count (gates, swaps, EPR pairs, cost hints, QEC
//     overheads) or a float the tree computes without sampling, the exact
//     value this tree produces;
//   - for a sampled value, z = 5 standard deviations of its sampling
//     distribution around the exact value; the largest count over m
//     outcomes takes z = 6, a union bound over the m;
//   - for a sampler with no closed form (greedy descent, tabu search,
//     simulated annealing), the ordering the paper's ablation claims,
//     stated against the row the band names.
//
// Only the QEC closed form against its Monte Carlo decoder, the syndrome
// decoder, the distributed-QFT accounting beyond the simulator's width and
// E11's classical baselines call a library directly: no server path
// computes them.
//
//	go test -run '^TestPaper$' -v .
//
// prints one line per row (id, reference, quantity, value, band) and fails
// when a value leaves its band. Row ids by paper section:
//
//	S5.*      §5: one typed Max-Cut intent on the gate path (QAOA) and the anneal path (Ising)
//	THESIS.*  §1/§3: seeded optimization intents run under contexts that differ only in ctxdesc
//	L1.*      Listing 1: the 10-qubit QFT, 10000 shots
//	L2.*      Listing 2: the phase register's typed readout
//	L3.*      Listing 3: the QFT cost hint against its realization
//	L4.*      Listing 4: basis {sx,rz,cx} on a linear coupling map, by optimization level
//	L5.*      Listing 5: QEC overhead and logical error rate by code family and distance
//	C431.*    §4.3.1: distributed QFT, teleported CNOTs and their EPR accounting
//	E10.*     ablation: QAOA depth p against the best expected cut
//	E11.*     ablation: simulated annealing against random, greedy and tabu baselines
//	E12.*     ablation: optimization levels on a single-qubit-dense ansatz
//	E13.*     ablation: Grover success against context noise
//	PF.*      §4.2 templates: period finding (modular exponentiation, inverse QFT)
//	NP.*      §1 anneal path: number partitioning
//	TFIM.*    §4.2 Ising evolution: a Trotterized transverse-field chain
//	EMB.*     §5 anneal path: minor embedding onto a Chimera graph

import (
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/comm"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/ising"
	"repro/internal/qdt"
	"repro/internal/qec"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// band returns the closed interval a row's value must fall in; got holds
// the values of the rows above it, for a band stated against another row.
type band func(t *testing.T, got map[string]float64) (lo, hi float64)

type row struct {
	id, ref, quantity string
	value             func(t *testing.T) float64
	band              band
}

func TestPaper(t *testing.T) { checkRows(t, "") }

// The E tests each hold one slice of the table: the rows that took over
// what the test asserted before the table existed.

// TestE1E2_JobFileRoundTrip: both §5 bundles arrive as job.json files and
// run on their engines.
func TestE1E2_JobFileRoundTrip(t *testing.T) { checkRows(t, "S5.cut.", "S5.gate.", "S5.anneal.") }

// TestE3_CrossBackendConsistency: both paths put the optimal cuts on top,
// and the seeded intents agree across contexts.
func TestE3_CrossBackendConsistency(t *testing.T) {
	checkRows(t, "S5.gate.top2", "S5.anneal.top2", "THESIS.")
}

func TestE4_QFTUniform(t *testing.T) { checkRows(t, "L1.") }

func TestE5_QFTCostHint(t *testing.T) { checkRows(t, "L3.hint.", "L3.logical.") }

// TestE6_CouplingMapRouting: the all-to-all counts against the linear
// map's, by optimization level.
func TestE6_CouplingMapRouting(t *testing.T) { checkRows(t, "L3.est.", "L4.") }

func TestE9_IntentArtifactsUnchanged(t *testing.T) {
	checkRows(t, "S5.fingerprint", "THESIS.fingerprint")
}

func TestNoiseAblationThroughContext(t *testing.T) { checkRows(t, "E13.") }

// checkRows evaluates, in table order, the rows whose id starts with one
// of prefixes; the empty prefix takes every row. A band stated against
// another row needs that row in the same selection.
func checkRows(t *testing.T, prefixes ...string) {
	got := map[string]float64{}
	for _, r := range rows {
		if _, dup := got[r.id]; dup {
			t.Fatalf("row id %s appears twice", r.id)
		}
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(r.id, p) }) {
			continue
		}
		v := r.value(t)
		lo, hi := r.band(t, got)
		got[r.id] = v
		t.Logf("%-22s %-11s %-70s %13.7g  [%.7g, %.7g]", r.id, r.ref, r.quantity, v, lo, hi)
		if !(v >= lo && v <= hi) {
			t.Errorf("%s: %s = %.12g leaves its band [%.12g, %.12g]", r.id, r.quantity, v, lo, hi)
		}
	}
	if len(got) == 0 {
		t.Fatalf("no row id starts with any of %q", prefixes)
	}
}

var rows = slices.Concat(section5, thesisRows, listings1to3, listing4Rows(), listing5Rows(), comm431Rows(), ablationRows(), templateRows())

// ---- bands ----

func in(lo, hi float64) band {
	return func(*testing.T, map[string]float64) (float64, float64) { return lo, hi }
}

func is(x float64) band { return in(x, x) }

func near(x, tol float64) band { return in(x-tol, x+tol) }

// sampled is the z = 5 band around an exact mean; exact returns the mean
// and the standard deviation of the sampled statistic. The 1e-9 covers the
// rounding of an exact mean of 0 or 1, whose deviation is 0.
func sampled(exact func(t *testing.T) (mean, sd float64)) band {
	return func(t *testing.T, _ map[string]float64) (float64, float64) {
		m, sd := exact(t)
		return m - 5*sd - 1e-9, m + 5*sd + 1e-9
	}
}

// prior is the value of row id, which must stand above the row asking.
func prior(t *testing.T, got map[string]float64, id string) float64 {
	v, ok := got[id]
	if !ok {
		t.Fatalf("a band names row %s, which is not above it", id)
	}
	return v
}

// upTo is [lo, the value of row id]; from is [the value of row id, hi];
// between is [the value of row lo, the value of row hi].
func upTo(lo float64, id string) band {
	return func(t *testing.T, got map[string]float64) (float64, float64) { return lo, prior(t, got, id) }
}

func from(id string, hi float64) band {
	return func(t *testing.T, got map[string]float64) (float64, float64) { return prior(t, got, id), hi }
}

func between(lo, hi string) band {
	return func(t *testing.T, got map[string]float64) (float64, float64) {
		return prior(t, got, lo), prior(t, got, hi)
	}
}

func exactly(f func(t *testing.T) float64) band {
	return func(t *testing.T, _ map[string]float64) (float64, float64) { x := f(t); return x, x }
}

// ---- helpers ----

const (
	// Grid-optimal p=1 angles for the 4-cycle under this library's QAOA
	// convention (e^{-iγΣZZ} cost, RX(2β) mixer): γ = π/8, β = 3π/8 reach
	// the p=1 optimum, expected cut 3.0.
	bestGamma = 0.3926990817
	bestBeta  = 1.1780972451
)

var (
	listing4Basis = []string{"sx", "rz", "cx"}
	cycle4        = graph.Cycle(4)
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// val returns v, failing the test on err.
func val[T any](v T, err error) func(t *testing.T) T {
	return func(t *testing.T) T {
		t.Helper()
		must(t, err)
		return v
	}
}

// lazy computes a fixture once, on the first row that reads it. TestPaper
// evaluates the rows in order on one goroutine.
func lazy[T any](f func(t *testing.T) T) func(t *testing.T) T {
	var v T
	done := false
	return func(t *testing.T) T {
		if !done {
			v, done = f(t), true
		}
		return v
	}
}

func pack(t *testing.T, ops qop.Sequence, ctx *ctxdesc.Context, regs ...*qdt.DataType) *bundle.Bundle {
	t.Helper()
	return val(bundle.New(regs, ops, ctx))(t)
}

// viaJobFile writes b as a job.json, loads it back and checks it against
// the embedded JSON Schemas, as an external tool's job file would arrive.
func viaJobFile(t *testing.T, b *bundle.Bundle) *bundle.Bundle {
	t.Helper()
	path := filepath.Join(t.TempDir(), "job.json")
	must(t, b.Save(path))
	loaded := val(bundle.Load(path, qop.ValidateOptions{}))(t)
	must(t, loaded.ValidateAgainstSchemas())
	return loaded
}

func submit(t *testing.T, b *bundle.Bundle) *result.Result {
	t.Helper()
	return val(runtime.Submit(b, runtime.Options{}))(t)
}

func estimate(t *testing.T, b *bundle.Bundle, engine string) runtime.Estimate {
	t.Helper()
	for _, e := range val(runtime.EstimateAll(b))(t) {
		if e.Engine == engine {
			return e
		}
	}
	t.Fatalf("no %s estimate", engine)
	return runtime.Estimate{}
}

func realize(t *testing.T, b *bundle.Bundle) *backend.CircuitRealization {
	t.Helper()
	return val(backend.RealizeCircuit(b, false, backend.ExecOptions{}))(t)
}

func meta[T any](t *testing.T, res *result.Result, key string) T {
	t.Helper()
	v, ok := res.Meta[key].(T)
	if !ok {
		t.Fatalf("meta[%q] is %T", key, res.Meta[key])
	}
	return v
}

// exactDist evolves the circuit the gate engine runs for b and returns the
// probability of every measured clbit pattern (of every basis state, when
// b measures nothing). The bundles here measure through their default
// result schema, so a pattern is the register value an entry's Index holds.
func exactDist(t *testing.T, b *bundle.Bundle) []float64 {
	t.Helper()
	r := realize(t, b)
	st := val(sim.Evolve(r.Circuit))(t)
	mm := r.Circuit.MeasureMap()
	width := r.Circuit.NumQubits
	if len(mm) > 0 {
		width = r.Circuit.NumClbits
	}
	dist := make([]float64, 1<<width)
	for k := uint64(0); k < uint64(st.Dim()); k++ {
		key := k
		if len(mm) > 0 {
			key = 0
			for q, cb := range mm {
				key |= (k >> q & 1) << cb
			}
		}
		dist[key] += st.Probability(k)
	}
	return dist
}

// shotMean is the exact mean of f under dist and the standard deviation of
// its mean over n shots.
func shotMean(dist []float64, n int, f func(k uint64) float64) (mean, sd float64) {
	var m2 float64
	for k, p := range dist {
		v := f(uint64(k))
		mean += p * v
		m2 += p * v * v
	}
	return mean, math.Sqrt(math.Max(m2-mean*mean, 0) / float64(n))
}

func indicator(keep func(k uint64) bool) func(uint64) float64 {
	return func(k uint64) float64 {
		if keep(k) {
			return 1
		}
		return 0
	}
}

// largestCount is the band of the largest count when n shots fall
// uniformly on m outcomes: from the pigeonhole floor to 6σ of one count.
func largestCount(n, m int) band {
	p := 1 / float64(m)
	mean := float64(n) * p
	return in(mean, mean+6*math.Sqrt(float64(n)*p*(1-p)))
}

func maxCount(res *result.Result) float64 {
	top := 0
	for _, e := range res.Entries {
		top = max(top, e.Count)
	}
	return float64(top)
}

// samplerStats are the best energy, the mean energy and the share of reads
// at the ground energy.
type samplerStats struct{ best, mean, ground float64 }

func entryStats(res *result.Result, ground float64) samplerStats {
	s := samplerStats{best: math.Inf(1)}
	for _, e := range res.Entries {
		s.best = min(s.best, e.Energy)
		if math.Abs(e.Energy-ground) <= 1e-9 {
			s.ground += float64(e.Count)
		}
	}
	s.mean = res.Expectation(func(e result.Entry) float64 { return e.Energy })
	s.ground /= float64(res.Samples)
	return s
}

func libStats(res *anneal.Result, ground float64) samplerStats {
	return samplerStats{res.Best().Energy, res.MeanEnergy(), res.GroundProbability(ground, 1e-9)}
}

func qftBundle(t *testing.T, n int, ctx *ctxdesc.Context) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewPhaseRegister("reg_phase", "phase", n)
	qft := val(algolib.NewQFT(reg, 0, true, false))(t)
	return pack(t, qop.Sequence{qft, algolib.NewMeasurement(reg)}, ctx, reg)
}

func qaoaBundle(t *testing.T, ctx *ctxdesc.Context, gamma, beta []float64) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	return pack(t, val(algolib.BuildQAOA(reg, cycle4, gamma, beta))(t), ctx, reg)
}

func isingBundle(t *testing.T, m *ising.Model, ctx *ctxdesc.Context) *bundle.Bundle {
	t.Helper()
	reg := qdt.NewIsingVars("ising_vars", "s", m.N)
	return pack(t, qop.Sequence{val(algolib.NewIsingProblem(reg, m))(t)}, ctx, reg)
}

func gateCtx(engine string, shots int, seed uint64, target *ctxdesc.Target, level int) *ctxdesc.Context {
	ctx := ctxdesc.NewGate(engine, shots, seed)
	ctx.Exec.Target = target
	ctx.Exec.Options = map[string]any{"optimization_level": level}
	return ctx
}

func annealCtx(engine string, reads, sweeps int, seed uint64) *ctxdesc.Context {
	ctx := ctxdesc.NewAnneal(engine, reads, seed)
	ctx.Anneal.Sweeps = sweeps
	return ctx
}

// ---- §5 ----

type gateRun struct {
	b    *bundle.Bundle
	res  *result.Result
	dist []float64
}

// s5Gate is the §5 gate path: QAOA p=1 at the pinned angles under basis
// {sx,rz,cx} on the ring coupling map at optimization level 2, 4096 shots,
// seed 42, arriving as a job.json file.
var s5Gate = lazy(func(t *testing.T) gateRun {
	ring := &ctxdesc.Target{BasisGates: listing4Basis, CouplingMap: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
	b := viaJobFile(t, qaoaBundle(t, gateCtx("gate.aer_simulator", 4096, 42, ring, 2), []float64{bestGamma}, []float64{bestBeta}))
	return gateRun{b, submit(t, b), exactDist(t, b)}
})

// s5Anneal is the §5 anneal path: the 4-cycle's Ising problem on
// anneal.neal, 1000 reads, seed 42, arriving as a job.json file.
var s5Anneal = lazy(func(t *testing.T) *result.Result {
	return submit(t, viaJobFile(t, isingBundle(t, ising.FromMaxCut(cycle4), ctxdesc.NewAnneal("anneal.neal", 1000, 42))))
})

func cut4(k uint64) float64 { return cycle4.CutValueBits(k) }

// optimalInTopTwo counts the optimal cuts among the two most frequent
// outcomes.
func optimalInTopTwo(res *result.Result) float64 {
	res.Sort()
	n := 0
	for _, e := range res.Entries[:2] {
		if cut4(e.Index) == cycle4.MaxCutBruteForce().Value {
			n++
		}
	}
	return float64(n)
}

// sweepMismatches runs a 9×9 (γ,β) grid as one sweep through
// runtime.SubmitSweep and counts the points whose counts differ from a
// plain Submit of the same concrete bundle.
func sweepMismatches(t *testing.T) float64 {
	angles := []float64{0.13, 0.26, 0.39, 0.52, 0.65, 0.79, 0.92, 1.05, 1.18}
	var points [][]float64
	for _, g := range angles {
		for _, b := range angles {
			points = append(points, []float64{g, b})
		}
	}
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	seq := val(algolib.BuildQAOASymbolic(reg, cycle4, []string{"gamma0"}, []string{"beta0"}))(t)
	ctx := ctxdesc.NewGate("gate.statevector", 1024, 42)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	tmpl := pack(t, seq, ctx, reg)
	concrete := make([]*bundle.Bundle, len(points))
	indices := make([]int, len(points))
	for i, pt := range points {
		concrete[i], indices[i] = val(tmpl.BindPoint(pt))(t), i
	}
	mismatches := 0
	must(t, runtime.SubmitSweep(tmpl, concrete, indices, runtime.Options{}, func(i int, res *result.Result) error {
		plain := submit(t, qaoaBundle(t, ctxdesc.NewGate("gate.statevector", 1024, 42), points[i][:1], points[i][1:]))
		if fmt.Sprint(res.Entries) != fmt.Sprint(plain.Entries) {
			mismatches++
		}
		return nil
	}))
	return float64(mismatches)
}

var section5 = []row{
	{"S5.cut.exact", "§5", "QAOA p=1 exact expected cut at γ=π/8, β=3π/8",
		func(t *testing.T) float64 { m, _ := shotMean(s5Gate(t).dist, 1, cut4); return m }, near(3, 1e-9)},
	{"S5.cut.sampled", "§5", "QAOA expected cut over 4096 shots",
		func(t *testing.T) float64 {
			return s5Gate(t).res.Expectation(func(e result.Entry) float64 { return cut4(e.Index) })
		},
		sampled(func(t *testing.T) (float64, float64) { return shotMean(s5Gate(t).dist, 4096, cut4) })},
	{"S5.gate.top2", "§5", "gate path: optimal cuts (1010, 0101) among the top two outcomes",
		func(t *testing.T) float64 { return optimalInTopTwo(s5Gate(t).res) }, is(2)},
	{"S5.gate.cx", "§5", "gate path: cx after transpile (meta.transpile)",
		func(t *testing.T) float64 {
			return float64(meta[transpile.Stats](t, s5Gate(t).res, "transpile").TwoQAfter)
		}, is(8)},
	{"S5.gate.depth", "§5", "gate path: depth after transpile",
		func(t *testing.T) float64 {
			return float64(meta[transpile.Stats](t, s5Gate(t).res, "transpile").DepthAfter)
		}, is(21)},
	{"S5.gate.swaps", "§5", "gate path: swaps the ring coupling map needs",
		func(t *testing.T) float64 {
			return float64(meta[transpile.Stats](t, s5Gate(t).res, "transpile").SwapsInserted)
		}, is(0)},
	{"S5.anneal.top2", "§5", "anneal path: optimal cuts (1010, 0101) among the top two outcomes",
		func(t *testing.T) float64 { return optimalInTopTwo(s5Anneal(t)) }, is(2)},
	{"S5.anneal.best", "§5", "anneal path: best sample energy against the brute-force ground",
		func(t *testing.T) float64 { return entryStats(s5Anneal(t), 0).best },
		is(ising.FromMaxCut(cycle4).BruteForce().Energy)},
	{"S5.sweep", "§5", "81-point (γ,β) sweep: points whose counts differ from a plain Submit",
		sweepMismatches, is(0)},
	{"S5.fingerprint", "§1/§3", "4-cycle anneal intent via job.json on anneal.sa, embedded, no context: fingerprint changes",
		func(t *testing.T) float64 {
			intent := isingBundle(t, ising.FromMaxCut(cycle4), nil)
			fp, n := val(intent.Fingerprint())(t), 0
			embedded := annealCtx("anneal.sa", 100, 300, 1)
			embedded.Anneal.Embed, embedded.Anneal.UnitCells = true, 1
			for _, ctx := range []*ctxdesc.Context{ctxdesc.NewAnneal("anneal.sa", 100, 1), embedded, nil} {
				b := viaJobFile(t, intent.WithContext(ctx))
				if res := submit(t, b); res.Meta["intent_fingerprint"] != fp || val(b.Fingerprint())(t) != fp {
					n++
				}
			}
			return float64(n)
		}, is(0)},
}

// ---- §1/§3 thesis ----

const thesisSeeds = 50

// thesisModel draws seed's optimization problem on 4–10 spins, by seed
// mod 4: Max-Cut on a random graph, number partitioning, or a random Ising
// model with integer or with real fields and couplings.
func thesisModel(t *testing.T, seed uint64) *ising.Model {
	r := rng.New(seed)
	n := 4 + r.Intn(7)
	switch seed % 4 {
	case 0:
		return ising.FromMaxCut(graph.ErdosRenyi(n, 0.5, seed))
	case 1:
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(1 + r.Intn(20))
		}
		return val(ising.NumberPartitioning(w))(t)
	}
	draw := func() float64 {
		if seed%4 == 2 {
			return float64(r.Intn(5) - 2)
		}
		return r.NormFloat64()
	}
	h := make([]float64, n)
	var terms []ising.Term
	for i := range h {
		h[i] = draw()
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.5 {
				terms = append(terms, ising.Term{I: i, J: j, V: draw()})
			}
		}
	}
	m := ising.New(n, terms)
	copy(m.H, h)
	return m
}

// thesisTally lists, per property, the seeds that break it.
type thesisTally struct{ anneal, transpile, pulse, fingerprint []uint64 }

// thesis runs every seed's problem in its two formulations over one typed
// register: the anneal intent (one ISING_PROBLEM) on anneal.sa and
// anneal.neal, and the gate intent (a QAOA layer whose cost is the model's
// own ISING_EVOLUTION) on gate.statevector and pulse.model under the
// Listing-4 basis and with no context at all. Only the context differs
// between the runs of one intent.
var thesis = lazy(func(t *testing.T) (tally thesisTally) {
	for seed := uint64(1); seed <= thesisSeeds; seed++ {
		m := thesisModel(t, seed)
		annealIntent := isingBundle(t, m, nil)
		reg := annealIntent.QDTs[0]
		gateIntent := pack(t, qop.Sequence{
			val(algolib.NewPrepUniform(reg))(t),
			val(algolib.NewIsingEvolution(reg, m, 0.4))(t),
			val(algolib.NewMixerRX(reg, 0.3))(t),
			algolib.NewMeasurement(reg),
		}, nil, reg)

		fingerprintOK := true
		run := func(intent *bundle.Bundle, ctx *ctxdesc.Context) (*bundle.Bundle, *result.Result) {
			b := intent.WithContext(ctx)
			res := submit(t, b)
			if fp := val(intent.Fingerprint())(t); res.Meta["intent_fingerprint"] != fp || val(b.Fingerprint())(t) != fp {
				fingerprintOK = false
			}
			return b, res
		}
		ground := m.BruteForce().Energy
		annealOK := true
		for _, engine := range []string{"anneal.sa", "anneal.neal"} {
			_, res := run(annealIntent, annealCtx(engine, 32, 300, seed))
			annealOK = annealOK && math.Abs(entryStats(res, ground).best-ground) <= 1e-9
		}
		target := &ctxdesc.Target{BasisGates: listing4Basis}
		_, gate := run(gateIntent, gateCtx("gate.statevector", 64, seed, target, 1))
		pulseBundle, pulse := run(gateIntent, gateCtx("pulse.model", 64, seed, target, 1))
		run(gateIntent, nil)
		pulseNS := meta[backend.PulseInfo](t, pulse, "pulse").TotalDurationNS * 64

		for _, c := range []struct {
			ok    bool
			seeds *[]uint64
		}{
			{annealOK, &tally.anneal},
			{meta[transpile.Stats](t, gate, "transpile") == meta[transpile.Stats](t, pulse, "transpile"), &tally.transpile},
			{pulseNS == estimate(t, pulseBundle, "pulse.model").DurationNS, &tally.pulse},
			{fingerprintOK, &tally.fingerprint},
		} {
			if !c.ok {
				*c.seeds = append(*c.seeds, seed)
			}
		}
	}
	return tally
})

// seedsBreaking counts the seeds that break one thesis property, naming
// them in the log.
func seedsBreaking(pick func(thesisTally) []uint64) func(t *testing.T) float64 {
	return func(t *testing.T) float64 {
		seeds := pick(thesis(t))
		if len(seeds) > 0 {
			t.Logf("seeds: %v", seeds)
		}
		return float64(len(seeds))
	}
}

var thesisRows = []row{
	{"THESIS.anneal", "§1/§3", fmt.Sprintf("seeds (of %d) whose anneal best energy misses the brute-force ground", thesisSeeds),
		seedsBreaking(func(x thesisTally) []uint64 { return x.anneal }), is(0)},
	{"THESIS.transpile", "§1/§3", "seeds whose gate and pulse.model runs report different meta.transpile",
		seedsBreaking(func(x thesisTally) []uint64 { return x.transpile }), is(0)},
	{"THESIS.pulse", "§1/§3", "seeds whose meta.pulse duration × shots ≠ EstimateAll's pulse.model DurationNS",
		seedsBreaking(func(x thesisTally) []uint64 { return x.pulse }), is(0)},
	{"THESIS.fingerprint", "§1/§3", "seeds where a context changes the intent fingerprint (bundle or meta)",
		seedsBreaking(func(x thesisTally) []uint64 { return x.fingerprint }), is(0)},
}

// ---- Listings 1–3 ----

// qft10 is Listing 1's job as the middle layer states it: a 10-qubit phase
// register (Listing 2), a QFT template (Listing 3) and a measurement, on
// gate.aer_simulator, 10000 shots, seed 42. QFT|0…0⟩ is the uniform
// superposition, so each of the 1024 outcomes has probability 1/1024.
var qft10 = lazy(func(t *testing.T) gateRun {
	b := qftBundle(t, 10, ctxdesc.NewGate("gate.aer_simulator", 10000, 42))
	return gateRun{b: b, res: submit(t, b)}
})

// qft10Listing4 is the same intent under basis {sx,rz,cx}, optimization
// level 2, all-to-all.
var qft10Listing4 = lazy(func(t *testing.T) *bundle.Bundle {
	return qftBundle(t, 10, gateCtx("gate.aer_simulator", 10000, 42, &ctxdesc.Target{BasisGates: listing4Basis}, 2))
})

var listings1to3 = []row{
	{"L1.outcomes", "Listing 1", "distinct outcomes of 10000 shots over 1024",
		func(t *testing.T) float64 { return float64(len(qft10(t).res.Entries)) },
		sampled(func(*testing.T) (float64, float64) {
			miss := math.Pow(1-1.0/1024, 10000) // P(an outcome is never drawn)
			return 1024 * (1 - miss), math.Sqrt(1024 * miss * (1 - miss))
		})},
	{"L1.maxcount", "Listing 1", "largest outcome count (uniform ≈ 9.77)",
		func(t *testing.T) float64 { return maxCount(qft10(t).res) }, largestCount(10000, 1024)},
	{"L2.phase", "Listing 2", "largest |decoded phase − k/1024| over the outcomes (AS_PHASE)",
		func(t *testing.T) float64 {
			worst := 0.0
			for _, e := range qft10(t).res.Entries {
				worst = max(worst, math.Abs(e.Value.Float-float64(e.Index)/1024))
			}
			return worst
		}, is(0)},
	{"L3.hint.twoq", "Listing 3", "QFT cost hint: two-qubit gates",
		func(t *testing.T) float64 { return float64(qft10(t).b.Operators[0].CostHint.TwoQ) }, is(45)},
	{"L3.hint.depth", "Listing 3", "QFT cost hint: depth",
		func(t *testing.T) float64 { return float64(qft10(t).b.Operators[0].CostHint.Depth) }, is(100)},
	{"L3.logical.cp", "Listing 3", "lowered QFT: controlled phases",
		func(t *testing.T) float64 { return float64(realize(t, qft10Listing4(t)).Logical.CountOps()["cp"]) }, is(45)},
	{"L3.logical.swap", "Listing 3", "lowered QFT: swaps (do_swaps)",
		func(t *testing.T) float64 { return float64(realize(t, qft10Listing4(t)).Logical.CountOps()["swap"]) }, is(5)},
	{"L3.logical.depth", "Listing 3", "lowered QFT: depth",
		func(t *testing.T) float64 { return float64(realize(t, qft10Listing4(t)).Logical.Depth()) }, is(21)},
	{"L3.est.cx", "Listing 3", "EstimateAll gate.statevector under {sx,rz,cx}: cx",
		func(t *testing.T) float64 {
			return float64(estimate(t, qft10Listing4(t), "gate.statevector").TwoQubitGates)
		}, is(105)},
	{"L3.est.depth", "Listing 3", "EstimateAll gate.statevector under {sx,rz,cx}: depth",
		func(t *testing.T) float64 { return float64(estimate(t, qft10Listing4(t), "gate.statevector").Depth) }, is(68)},
}

// ---- Listing 4 ----

// listing4Rows realizes the QFT(10) job under basis {sx,rz,cx} on the
// linear coupling map 0–1–…–9 at each optimization level; level 2 is
// Listing 4's. Against the all-to-all L3.est rows, routing inflates cx
// and depth.
func listing4Rows() []row {
	var linear [][2]int
	for i := 0; i < 9; i++ {
		linear = append(linear, [2]int{i, i + 1})
	}
	want := [4]transpile.Stats{
		{SizeAfter: 670, TwoQAfter: 495, DepthAfter: 190, SwapsInserted: 130},
		{SizeAfter: 670, TwoQAfter: 495, DepthAfter: 190, SwapsInserted: 130},
		{SizeAfter: 616, TwoQAfter: 495, DepthAfter: 180, SwapsInserted: 130},
		{SizeAfter: 616, TwoQAfter: 495, DepthAfter: 180, SwapsInserted: 130},
	}
	var out []row
	for level, w := range want {
		stats := lazy(func(t *testing.T) transpile.Stats {
			return realize(t, qftBundle(t, 10, gateCtx("gate.aer_simulator", 10000, 42, &ctxdesc.Target{BasisGates: listing4Basis, CouplingMap: linear}, level))).Transpiled.Stats
		})
		for _, q := range []struct {
			name string
			pick func(transpile.Stats) int
			want int
		}{
			{"size", func(s transpile.Stats) int { return s.SizeAfter }, w.SizeAfter},
			{"cx", func(s transpile.Stats) int { return s.TwoQAfter }, w.TwoQAfter},
			{"depth", func(s transpile.Stats) int { return s.DepthAfter }, w.DepthAfter},
			{"swaps", func(s transpile.Stats) int { return s.SwapsInserted }, w.SwapsInserted},
		} {
			out = append(out, row{fmt.Sprintf("L4.o%d.%s", level, q.name), "Listing 4",
				fmt.Sprintf("QFT(10), linear map, optimization level %d: %s", level, q.name),
				func(t *testing.T) float64 { return float64(q.pick(stats(t))) }, is(float64(q.want))})
		}
	}
	return out
}

// ---- Listing 5 ----

// listing5Rows runs the §5 QAOA job under a QEC block per code family and
// distance at physical error rate 1e-3 and reads meta.qec: physical qubits
// per logical qubit, syndrome rounds per logical op, and the logical error
// rate.
func listing5Rows() []row {
	type policy struct {
		family   string
		d        int
		overhead float64
		logical  float64
	}
	policies := []policy{
		{"repetition", 3, 5, 2.998e-06}, {"repetition", 5, 9, 9.985006e-09}, {"repetition", 7, 13, 3.491606998e-11},
		{"repetition", 9, 17, 1.25580539685e-13}, {"repetition", 11, 21, 4.60023461921e-16},
		{"surface", 3, 17, 1e-3}, {"surface", 5, 49, 1e-4}, {"surface", 7, 97, 1e-5},
		{"surface", 9, 161, 1e-6}, {"surface", 11, 241, 1e-7},
	}
	bare := lazy(func(t *testing.T) *bundle.Bundle {
		return qaoaBundle(t, nil, []float64{bestGamma}, []float64{bestBeta})
	})
	runs := lazy(func(t *testing.T) []*result.Result {
		var out []*result.Result
		for _, p := range policies {
			ctx := ctxdesc.NewGate("gate.statevector", 64, 42)
			ctx.QEC = &ctxdesc.QEC{CodeFamily: p.family, Distance: p.d, PhysErrorRate: 1e-3}
			out = append(out, submit(t, bare(t).WithContext(ctx)))
		}
		return out
	})
	var out []row
	for i, p := range policies {
		overhead := func(t *testing.T) qec.Overhead { return meta[qec.Overhead](t, runs(t)[i], "qec") }
		name := fmt.Sprintf("%s d=%d", p.family, p.d)
		out = append(out,
			row{fmt.Sprintf("L5.%s%d.qubits", p.family[:3], p.d), "Listing 5", name + ": physical qubits per logical qubit",
				func(t *testing.T) float64 { return overhead(t).QubitOverhead }, is(p.overhead)},
			row{fmt.Sprintf("L5.%s%d.rounds", p.family[:3], p.d), "Listing 5", name + ": syndrome rounds per logical op",
				func(t *testing.T) float64 { return float64(overhead(t).RoundOverhead) }, is(float64(p.d))},
			row{fmt.Sprintf("L5.%s%d.error", p.family[:3], p.d), "Listing 5", name + ": logical error rate at p = 1e-3",
				func(t *testing.T) float64 { return overhead(t).LogicalError }, near(p.logical, 1e-9*p.logical)},
		)
	}
	closedForm := func(t *testing.T) (float64, float64) {
		pl := val(qec.LogicalErrorRate(&ctxdesc.QEC{CodeFamily: "repetition", Distance: 5}, 0.05))(t)
		return pl, math.Sqrt(pl * (1 - pl) / 200000)
	}
	return append(out,
		row{"L5.fingerprint", "Listing 5", "QEC contexts whose result carries another intent fingerprint",
			func(t *testing.T) float64 {
				fp, n := val(bare(t).Fingerprint())(t), 0
				for _, res := range runs(t) {
					if res.Meta["intent_fingerprint"] != fp {
						n++
					}
				}
				return float64(n)
			}, is(0)},
		row{"L5.montecarlo", "Listing 5", "repetition d=5 at p=0.05: Monte Carlo rate, 200000 trials",
			func(t *testing.T) float64 { return val(qec.SimulateRepetition(5, 0.05, 200000, 42))(t).Rate }, sampled(closedForm)},
		row{"L5.syndrome", "Listing 5", "repetition d=5, 5 syndrome rounds at p=0.02: decoded value of logical 1",
			func(t *testing.T) float64 {
				decoded, _, err := qec.SyndromeExtraction(5, 5, 0.02, 1, 42)
				must(t, err)
				return float64(decoded)
			}, is(1)},
	)
}

// ---- §4.3.1 ----

// comm431Rows account the EPR pairs a QFT(n) block-split over two QPUs
// needs. The runnable width, n = 3, goes through Submit. A wider circuit
// needs more qubits than the simulator holds once every crossing cx has
// its EPR ancillas, so its plan is comm.Analyze over the circuit
// RealizeCircuit transpiles for it: the circuit Distribute is handed.
func comm431Rows() []row {
	distributed := func(t *testing.T, allowTeleport bool) *bundle.Bundle {
		ctx := ctxdesc.NewGate("gate.statevector", 4096, 11)
		ctx.Comm = &ctxdesc.Comm{QPUs: 2, QubitsPerQPU: 2, AllowTeleport: allowTeleport}
		return qftBundle(t, 3, ctx)
	}
	run := lazy(func(t *testing.T) *result.Result { return submit(t, distributed(t, true)) })
	out := []row{
		{"C431.n3.epr", "§4.3.1", "QFT(3) over 2 QPUs: EPR pairs (meta.comm)",
			func(t *testing.T) float64 { return float64(meta[comm.Plan](t, run(t), "comm").EPRPairs) }, is(7)},
		{"C431.n3.outcomes", "§4.3.1", "QFT(3) over 2 QPUs: distinct outcomes of 4096 shots (uniform over 8)",
			func(t *testing.T) float64 { return float64(len(run(t).Entries)) }, is(8)},
		{"C431.n3.maxcount", "§4.3.1", "QFT(3) over 2 QPUs: largest outcome count (uniform 512)",
			func(t *testing.T) float64 { return maxCount(run(t)) }, largestCount(4096, 8)},
		{"C431.refused", "§4.3.1", "the same job with allow_teleport=false is refused",
			func(t *testing.T) float64 {
				if _, err := runtime.Submit(distributed(t, false), runtime.Options{}); err != nil {
					return 1
				}
				return 0
			}, is(1)},
	}
	for _, w := range []struct{ n, epr int }{{4, 14}, {6, 27}, {8, 44}, {10, 65}, {12, 90}} {
		out = append(out, row{fmt.Sprintf("C431.n%d.epr", w.n), "§4.3.1", fmt.Sprintf("QFT(%d) over 2 QPUs: EPR pairs (comm.Analyze)", w.n),
			func(t *testing.T) float64 {
				r := realize(t, qftBundle(t, w.n, gateCtx("gate.statevector", 1, 0, &ctxdesc.Target{BasisGates: listing4Basis}, 1)))
				part := val(comm.FromContext(&ctxdesc.Comm{QPUs: 2, QubitsPerQPU: (w.n + 1) / 2, AllowTeleport: true}, w.n))(t)
				return float64(val(comm.Analyze(r.Transpiled.Circuit, part))(t).EPRPairs)
			}, is(float64(w.epr))})
	}
	return out
}

// ---- ablations ----

// bestExpectedCut grid-searches QAOA depth p on the 4-cycle: one symbolic
// template, each grid point bound by BindPoint and evolved exactly in the
// circuit the engine runs for it.
func bestExpectedCut(t *testing.T, p int) float64 {
	grid := []float64{0.13, 0.26, 0.39, 0.52, 0.65, 0.79, 0.92, 1.05, 1.18}
	if p > 1 {
		grid = []float64{0.26, 0.52, 0.79, 1.05}
	}
	var gammas, betas []string
	for l := 0; l < p; l++ {
		gammas, betas = append(gammas, fmt.Sprintf("gamma%d", l)), append(betas, fmt.Sprintf("beta%d", l))
	}
	points := [][]float64{nil}
	for range 2 * p {
		var next [][]float64
		for _, pt := range points {
			for _, v := range grid {
				next = append(next, append(slices.Clone(pt), v))
			}
		}
		points = next
	}
	reg := qdt.NewIsingVars("ising_vars", "s", 4)
	ctx := ctxdesc.NewGate("gate.statevector", 1, 0)
	ctx.Sweep = &ctxdesc.Sweep{Params: append(gammas, betas...), Points: points}
	tmpl := pack(t, val(algolib.BuildQAOASymbolic(reg, cycle4, gammas, betas))(t), ctx, reg)
	best := math.Inf(-1)
	for _, pt := range points {
		cut, _ := shotMean(exactDist(t, val(tmpl.BindPoint(pt))(t)), 1, cut4)
		best = max(best, cut)
	}
	return best
}

// e11 is the annealer ablation on a 12-vertex Erdős–Rényi(0.5) Max-Cut,
// 50 reads each, seed 42: the classical baselines from the library, SA at
// 10, 100 and 1000 sweeps through Submit.
type e11Run struct {
	model                *ising.Model
	ground               ising.GroundStates
	random, greedy, tabu samplerStats
	sa                   map[int]samplerStats
}

var e11 = lazy(func(t *testing.T) e11Run {
	m := ising.FromMaxCut(graph.ErdosRenyi(12, 0.5, 7))
	r := e11Run{model: m, ground: m.BruteForce(), sa: map[int]samplerStats{}}
	gs := r.ground.Energy
	r.random = libStats(val(anneal.RandomSample(m, 50, 42))(t), gs)
	r.greedy = libStats(val(anneal.GreedyDescent(m, 50, 42))(t), gs)
	r.tabu = libStats(val(anneal.TabuSearch(m, 50, 0, 42))(t), gs)
	for _, sweeps := range []int{10, 100, 1000} {
		r.sa[sweeps] = entryStats(submit(t, isingBundle(t, m, annealCtx("anneal.sa", 50, sweeps, 42))), gs)
	}
	return r
})

// samplerRows are a sampler's best energy (the ground), mean energy (no
// worse than the row named by worse) and ground share (no less than
// worse's).
func samplerRows(name, quantity, worse string, stats func(t *testing.T) samplerStats) []row {
	id := "E11." + name
	return []row{
		{id + ".best", "E11", quantity + ": best energy",
			func(t *testing.T) float64 { return stats(t).best }, exactly(func(t *testing.T) float64 { return e11(t).ground.Energy })},
		{id + ".mean", "E11", quantity + ": mean energy",
			func(t *testing.T) float64 { return stats(t).mean }, between("E11.ground", worse+".mean")},
		{id + ".ground", "E11", quantity + ": share of reads at the ground energy",
			func(t *testing.T) float64 { return stats(t).ground }, from(worse+".ground", 1)},
	}
}

func ablationRows() []row {
	out := []row{
		{"E10.p1", "E10", "QAOA p=1: best exact expected cut over a 9×9 (γ,β) grid",
			func(t *testing.T) float64 { return bestExpectedCut(t, 1) }, near(2.99991275825, 1e-9)},
		{"E10.p2", "E10", "QAOA p=2: best exact expected cut over a 4⁴ grid",
			func(t *testing.T) float64 { return bestExpectedCut(t, 2) }, near(3.96822009159, 1e-9)},
		{"E10.p3", "E10", "QAOA p=3: best exact expected cut over a 4⁶ grid",
			func(t *testing.T) float64 { return bestExpectedCut(t, 3) }, near(3.98083024264, 1e-9)},
		{"E11.ground", "E11", "ER(12, 0.5) Max-Cut: brute-force ground energy",
			func(t *testing.T) float64 { return e11(t).ground.Energy }, is(-17)},
		{"E11.random.mean", "E11", "random: mean energy (exact mean: the offset, 0)",
			func(t *testing.T) float64 { return e11(t).random.mean },
			sampled(func(t *testing.T) (float64, float64) {
				variance := 0.0
				for c := range e11(t).model.Couplings() {
					variance += c.V * c.V
				}
				return e11(t).model.Offset, math.Sqrt(variance / 50)
			})},
		{"E11.random.ground", "E11", "random: share of reads at the ground energy",
			func(t *testing.T) float64 { return e11(t).random.ground },
			sampled(func(t *testing.T) (float64, float64) {
				p := float64(len(e11(t).ground.Masks)) / 4096
				return p, math.Sqrt(p * (1 - p) / 50)
			})},
	}
	out = slices.Concat(out,
		samplerRows("greedy", "greedy descent", "E11.random", func(t *testing.T) samplerStats { return e11(t).greedy }),
		samplerRows("tabu", "tabu search", "E11.greedy", func(t *testing.T) samplerStats { return e11(t).tabu }),
		samplerRows("sa10", "SA, 10 sweeps", "E11.greedy", func(t *testing.T) samplerStats { return e11(t).sa[10] }),
		samplerRows("sa100", "SA, 100 sweeps", "E11.sa10", func(t *testing.T) samplerStats { return e11(t).sa[100] }),
		samplerRows("sa1000", "SA, 1000 sweeps", "E11.sa100", func(t *testing.T) samplerStats { return e11(t).sa[1000] }),
	)

	// E12: a single-qubit-dense ansatz (4 qubits, 6 layers of h·t·rz·sx
	// and two cx) as a GATE_LIST under basis {sx,rz,cx}.
	dense := circuit.New(4, 0)
	for layer := 0; layer < 6; layer++ {
		for q := 0; q < 4; q++ {
			dense.H(q)
			dense.T(q)
			dense.RZ(0.3+float64(layer)*0.1, q)
			dense.SXGate(q)
		}
		dense.CX(0, 1)
		dense.CX(2, 3)
	}
	for level, w := range [4][2]int{{156, 42}, {108, 30}, {108, 30}, {108, 30}} {
		stats := lazy(func(t *testing.T) transpile.Stats {
			reg := qdt.New("q", "q", 4, qdt.IntRegister, qdt.AsInt)
			ops := qop.Sequence{val(algolib.NewGateList(reg, dense))(t)}
			return realize(t, pack(t, ops, gateCtx("gate.statevector", 1, 0, &ctxdesc.Target{BasisGates: listing4Basis}, level), reg)).Transpiled.Stats
		})
		out = append(out,
			row{fmt.Sprintf("E12.o%d.size", level), "E12", fmt.Sprintf("dense ansatz, optimization level %d: size", level),
				func(t *testing.T) float64 { return float64(stats(t).SizeAfter) }, is(float64(w[0]))},
			row{fmt.Sprintf("E12.o%d.depth", level), "E12", fmt.Sprintf("dense ansatz, optimization level %d: depth", level),
				func(t *testing.T) float64 { return float64(stats(t).DepthAfter) }, is(float64(w[1]))},
		)
	}

	// E13: Grover search for |11⟩ among 16 states, 2048 shots, seed 42,
	// under stochastic Pauli noise set only in the context.
	type groverRun struct {
		intent *bundle.Bundle
		dist   []float64
		runs   []*result.Result
	}
	levels := []float64{0, 0.002, 0.01, 0.05}
	grover := lazy(func(t *testing.T) groverRun {
		reg := qdt.New("search", "x", 4, qdt.IntRegister, qdt.AsInt)
		g := groverRun{intent: pack(t, val(algolib.BuildGrover(reg, []uint64{11}, 0))(t), nil, reg)}
		for _, p := range levels {
			ctx := ctxdesc.NewGate("gate.statevector", 2048, 42)
			if p > 0 {
				ctx.Exec.Options = map[string]any{"noise": map[string]any{"prob_1q": p, "prob_2q": p, "readout_flip": p / 2}}
			} else {
				g.dist = exactDist(t, g.intent.WithContext(ctx))
			}
			g.runs = append(g.runs, submit(t, g.intent.WithContext(ctx)))
		}
		return g
	})
	marked := func(k uint64) bool { return k == 11 }
	success := func(i int) func(t *testing.T) float64 {
		return func(t *testing.T) float64 {
			res := grover(t).runs[i]
			return res.Expectation(func(e result.Entry) float64 { return indicator(marked)(e.Index) })
		}
	}
	out = append(out,
		row{"E13.rounds", "E13", "Grover oracle+diffusion rounds (optimal for 1 of 16)",
			func(t *testing.T) float64 {
				n := 0
				for _, op := range grover(t).intent.Operators {
					if op.RepKind == qop.GroverOracle {
						n++
					}
				}
				return float64(n)
			}, is(3)},
		row{"E13.p0", "E13", "P(marked), noiseless, 2048 shots",
			success(0), sampled(func(t *testing.T) (float64, float64) { return shotMean(grover(t).dist, 2048, indicator(marked)) })},
	)
	for i := 1; i < len(levels); i++ {
		out = append(out, row{fmt.Sprintf("E13.p%g", levels[i]), "E13",
			fmt.Sprintf("P(marked) at per-gate error %g (above chance 1/16, below the lower noise level)", levels[i]),
			success(i), upTo(1.0/16, fmt.Sprintf("E13.p%g", levels[i-1]))})
	}
	return append(out, row{"E13.fingerprint", "E13", "noise contexts whose result carries another intent fingerprint",
		func(t *testing.T) float64 {
			fp, n := val(grover(t).intent.Fingerprint())(t), 0
			for _, res := range grover(t).runs {
				if res.Meta["intent_fingerprint"] != fp {
					n++
				}
			}
			return float64(n)
		}, is(0)})
}

// ---- §4.2 templates and the anneal path beyond Max-Cut ----

func templateRows() []row {
	// Period finding for 7^e mod 15 (order 4): uniform exponents, the
	// modular-exponentiation template, an inverse QFT on the 4-bit
	// exponent register, 8192 shots, seed 7. The mass sits on k/16 = s/4,
	// and continued fractions recover r = 4 from k = 4 and k = 12.
	periodFinding := lazy(func(t *testing.T) gateRun {
		exp := qdt.New("exponent", "e", 4, qdt.IntRegister, qdt.AsInt)
		work := qdt.New("work", "y", 4, qdt.IntRegister, qdt.AsInt)
		ops := qop.Sequence{
			val(algolib.NewPrepUniform(exp))(t),
			val(algolib.NewPrepBasis(work, 1))(t),
			val(algolib.NewModExp(exp, work, 7, 15))(t),
			val(algolib.NewQFT(exp, 0, true, true))(t),
			algolib.NewMeasurement(exp),
		}
		b := pack(t, ops, ctxdesc.NewGate("gate.statevector", 8192, 7), exp, work)
		return gateRun{b, submit(t, b), exactDist(t, b)}
	})
	onPeak := func(k uint64) bool { return k%4 == 0 }
	recovers := func(k uint64) bool {
		r, ok, err := algolib.RecoverPeriod(k, 4, 7, 15, 15)
		return err == nil && ok && r == 4
	}
	share := func(keep func(uint64) bool) (func(t *testing.T) float64, band) {
		return func(t *testing.T) float64 {
				return periodFinding(t).res.Expectation(func(e result.Entry) float64 { return indicator(keep)(e.Index) })
			}, sampled(func(t *testing.T) (float64, float64) {
				return shotMean(periodFinding(t).dist, 8192, indicator(keep))
			})
	}
	peaks, peaksBand := share(onPeak)
	recovered, recoveredBand := share(recovers)

	// Number partitioning of 12 weights (a perfect split exists) on
	// anneal.sa, 200 reads of 2000 sweeps, seed 11.
	weights := []float64{3, 14, 9, 7, 11, 4, 6, 13, 8, 5, 12, 4}
	partition := func(t *testing.T) *ising.Model { return val(ising.NumberPartitioning(weights))(t) }

	// K4 Max-Cut minor-embedded onto Chimera C(2) on anneal.sa, 500 reads
	// of 500 sweeps, seed 9.
	k4 := ising.FromMaxCut(graph.Complete(4))
	embedded := lazy(func(t *testing.T) *result.Result {
		ctx := annealCtx("anneal.sa", 500, 500, 9)
		ctx.Anneal.Embed, ctx.Anneal.UnitCells = true, 2
		return submit(t, isingBundle(t, k4, ctx))
	})
	embedding := func(t *testing.T) backend.EmbeddingInfo {
		return meta[backend.EmbeddingInfo](t, embedded(t), "embedding")
	}

	out := []row{
		{"PF.peaks", "§4.2", "period finding 7^e mod 15: share of shots on k ∈ {0, 4, 8, 12}", peaks, peaksBand},
		{"PF.recovered", "§4.2", "period finding: share of shots whose continued fractions give r = 4", recovered, recoveredBand},
		{"NP.imbalance", "§1", "number partitioning of 12 weights: best sample's imbalance",
			func(t *testing.T) float64 {
				res := submit(t, isingBundle(t, partition(t), annealCtx("anneal.sa", 200, 2000, 11)))
				return ising.PartitionDifference(entryStats(res, 0).best)
			}, exactly(func(t *testing.T) float64 { return ising.PartitionDifference(partition(t).BruteForce().Energy) })},
		{"EMB.qubits", "§5", "K4 embedded on Chimera C(2): physical qubits (meta.embedding)",
			func(t *testing.T) float64 { return float64(embedding(t).PhysicalQubits) }, is(6)},
		{"EMB.chain", "§5", "K4 embedded on Chimera C(2): longest chain",
			func(t *testing.T) float64 { return float64(embedding(t).MaxChainLength) }, is(2)},
		{"EMB.strength", "§5", "K4 embedded on Chimera C(2): chain strength (2·max|J| + 1)",
			func(t *testing.T) float64 { return embedding(t).ChainStrength }, is(3)},
		{"EMB.best", "§5", "K4 embedded on Chimera C(2): best sample energy against the brute-force ground",
			func(t *testing.T) float64 { return entryStats(embedded(t), 0).best }, is(k4.BruteForce().Energy)},
	}

	// A transverse-field Ising chain, n = 6, J = 1, g = 1, evolved from
	// |0…0⟩ with 64 Trotter steps: the magnetization ⟨Z⟩(t) collapses from 1
	// toward 0. The evolution's cost hint grows linearly in the steps.
	chain := make([]ising.Term, 5)
	for i := range chain {
		chain[i] = ising.Term{I: i, J: i + 1, V: 1}
	}
	tfim := func(t *testing.T, time float64, steps int) *qop.Operator {
		reg := qdt.New("chain", "spins", 6, qdt.IsingSpin, qdt.AsSpin)
		return val(algolib.NewTFIMEvolution(reg, ising.New(6, chain), 1, time, steps))(t)
	}
	for _, w := range []struct{ time, z float64 }{
		{0, 1}, {0.25, 0.884761506744}, {0.5, 0.630375442844}, {0.75, 0.384350732008}, {1, 0.204302996458},
		{1.5, 0.0256991550386}, {2, -0.00128023844149}, {2.5, 0.00578670925722}, {3, -0.00757776435559},
	} {
		out = append(out, row{fmt.Sprintf("TFIM.z%g", w.time), "§4.2", fmt.Sprintf("TFIM chain: ⟨Z⟩ at t = %g", w.time),
			func(t *testing.T) float64 {
				op := tfim(t, w.time, 64)
				reg := qdt.New("chain", "spins", 6, qdt.IsingSpin, qdt.AsSpin)
				z, _ := shotMean(exactDist(t, pack(t, qop.Sequence{op}, nil, reg)), 1, func(k uint64) float64 {
					return 1 - 2*float64(bits.OnesCount64(k))/6
				})
				return z
			}, near(w.z, 1e-9)})
	}
	for _, w := range []struct{ steps, twoq, depth int }{{8, 80, 216}, {64, 640, 1728}, {512, 5120, 13824}} {
		out = append(out,
			row{fmt.Sprintf("TFIM.s%d.twoq", w.steps), "§4.2", fmt.Sprintf("TFIM cost hint at %d Trotter steps: two-qubit gates", w.steps),
				func(t *testing.T) float64 { return float64(tfim(t, 1, w.steps).CostHint.TwoQ) }, is(float64(w.twoq))},
			row{fmt.Sprintf("TFIM.s%d.depth", w.steps), "§4.2", fmt.Sprintf("TFIM cost hint at %d Trotter steps: depth", w.steps),
				func(t *testing.T) float64 { return float64(tfim(t, 1, w.steps).CostHint.Depth) }, is(float64(w.depth))},
		)
	}
	return out
}
