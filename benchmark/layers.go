package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/algolib"
	"repro/internal/anneal"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
	rt "repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// perLayer lists every per-layer metric with its unit, in the order of
// README.md's table. A traced run reports all of them on every workload:
// a layer the workload does not enter reads 0.
var perLayer = []struct{ Name, Unit string }{
	{"bundle.from_json_us", "us"},
	{"bundle.validate_us", "us"},
	{"bundle.fingerprint_us", "us"},
	{"jsonschema.validate_us", "us"},
	{"jobs.cache_key_us", "us"},
	{"jobs.http_submit_us", "us"},
	{"jobs.http_status_us", "us"},
	{"jobs.http_result_us", "us"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.rejected", "count"},
	{"store.append_us", "us"},
	{"store.put_result_us", "us"},
	{"store.fsync_disk_us", "us"},
	{"store.fsyncs_per_op", "count"},
	{"store.events_per_op", "count"},
	{"runtime.submit_ms", "ms"},
	{"algolib.lower_us", "us"},
	{"transpile.transpile_us", "us"},
	{"sim.compile_us", "us"},
	{"sim.execute_ms", "ms"},
	{"sim.sample_ms", "ms"},
	{"sim.run_noisy_ms", "ms"},
	{"sim.compile_parametric_us", "us"},
	{"sim.bind_us", "us"},
	{"bundle.bind_point_us", "us"},
	{"sim.allocs_per_run", "count"},
	{"sim.alloc_mb_per_run", "MB"},
	{"sim.kernel.gate1q.ms", "ms"}, {"sim.kernel.gate1q.gb", "GB"}, {"sim.kernel.gate1q.bw_frac", "ratio"},
	{"sim.kernel.gate2q.ms", "ms"}, {"sim.kernel.gate2q.gb", "GB"}, {"sim.kernel.gate2q.bw_frac", "ratio"},
	{"sim.kernel.monomial.ms", "ms"}, {"sim.kernel.monomial.gb", "GB"}, {"sim.kernel.monomial.bw_frac", "ratio"},
	{"sim.kernel.diag.ms", "ms"}, {"sim.kernel.diag.gb", "GB"}, {"sim.kernel.diag.bw_frac", "ratio"},
	{"sim.kernel.permute.ms", "ms"}, {"sim.kernel.permute.gb", "GB"}, {"sim.kernel.permute.bw_frac", "ratio"},
	{"sim.kernel.ctrlphase.ms", "ms"}, {"sim.kernel.ctrlphase.gb", "GB"}, {"sim.kernel.ctrlphase.bw_frac", "ratio"},
	{"sim.triad_gbs", "GB/s"},
	{"sim.shard_speedup", "ratio"},
	{"sim.shard_imbalance", "ratio"},
	{"result.decode_counts_us", "us"},
	{"anneal.sample_ms", "ms"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.submit_rtt_ms", "ms"},
	{"fleet.forwards_per_op", "count"},
	{"fleet.affinity_hit_ratio", "ratio"},
	{"client.latency_p50_ms.gate", "ms"},
	{"client.latency_p50_ms.hit", "ms"},
	{"client.latency_p50_ms.anneal", "ms"},
	{"client.latency_p50_ms.noisy", "ms"},
	{"client.latency_p90_ms", "ms"},
	{"client.latency_p99_ms", "ms"},
	{"client.busy_ops_per_s", "op/s"},
	{"client.busy_cpu_ms_per_op", "ms"},
	{"client.machine_slowdown", "ratio"},
	{"client.http_floor_us", "us"},
	{"client.build_s", "s"},
	{"qmlserve.rss_peak_mb", "MB"},
	{"qmlserve.gc_cycles", "count"},
	{"trace.coverage", "ratio"},
}

// kernelKinds are the kernel kinds of the roofline rows.
var kernelKinds = []string{"gate1q", "gate2q", "monomial", "diag", "permute", "ctrlphase"}

const (
	// liveShare is the part of a traced run's seconds spent driving real
	// processes, for the counters only they hold, split evenly between a
	// lone and a busy phase; pipelineShare the part the in-process pipeline
	// gets. The probes take what is left.
	liveShare     = 0.4
	pipelineShare = 0.36
	// durablePassSeconds is the length of the pass that reads the journal
	// counters under the default fsync policy.
	durablePassSeconds = 2
	// minPipelineOps is the least number of ops the in-process pipeline
	// runs, whatever the time budget.
	minPipelineOps = 10
	// probeCalls is how often a handler or store probe repeats; medians
	// are reported.
	probeCalls = 50
	// coverageLo and coverageHi bound trace.coverage: the timed children
	// of runtime.Submit must add up to the call itself.
	coverageLo, coverageHi = 0.90, 1.10
)

// coverageChildren are the spans that make up runtime.Submit (or
// SubmitSweep): the layers it calls, timed one by one.
var coverageChildren = []string{
	"bundle.validate", "bundle.fingerprint", "jsonschema.validate", "algolib.lower", "transpile.transpile",
	"sim.compile", "sim.compile_parametric", "sim.bind", "sim.execute", "sim.sample",
	"sim.run_noisy", "anneal.sample", "result.decode_counts", "store.put_result.point",
}

// layerMetrics accumulates the traced run's readings.
type layerMetrics map[string]Reading

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, s := range perLayer {
		m[s.Name] = Reading{0, s.Unit}
	}
	return m
}

// set stores a reading under a declared name; NaN (no samples) reads 0.
func (m layerMetrics) set(name string, v float64) {
	r, ok := m[name]
	if !ok {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Value = v
	m[name] = r
}

// runTraced produces every per-layer metric of one workload: a short live
// run for the counters real processes hold, then the workload's op list
// through the layers in-process, one goroutine, with a span around every
// call, then the probes of single layers.
func runTraced(w Workload, seed uint64, seconds float64, env Environment, bin, dataRoot, logDir string) (Report, []Span, error) {
	m := newLayerMetrics()
	rep := Report{Workload: w.Name, Traced: true, Metrics: m}

	phase := secondsToDuration(seconds * liveShare / 2)
	live, err := runLive(w, seed, phase, phase, 1, gatedFsync, bin, dataRoot, logDir)
	if err != nil {
		return rep, nil, err
	}
	rep.Attempted, rep.Failed, rep.Failures = live.Attempted, live.Failed, live.Failures
	liveMetrics(m, &rep, live)
	// The journal's own counts come from a short pass under the policy
	// each process defaults to; counts per op do not depend on its length
	// or on the disk.
	durable, err := runLive(w, seed, durablePassSeconds*time.Second, 0, 1, "", bin, dataRoot, logDir)
	if err != nil {
		return rep, nil, err
	}
	rep.Attempted, rep.Failed, rep.Failures = rep.Attempted+durable.Attempted, rep.Failed+durable.Failed, append(rep.Failures, durable.Failures...)
	m.set("store.fsyncs_per_op", delta(durable.Before, durable.After, "store_journal_syncs_total")/float64(durable.TimedOps))
	m.set("store.events_per_op", delta(durable.Before, durable.After, "store_journal_events_total")/float64(durable.TimedOps))
	m.set("client.build_s", env.BuildS)

	gen, err := newGenerator(w, seed)
	if err != nil {
		return rep, nil, err
	}
	dir, err := os.MkdirTemp(dataRoot, w.Name+"-traced-")
	if err != nil {
		return rep, nil, err
	}
	defer os.RemoveAll(dir)

	p, err := newPipeline(filepath.Join(dir, "pipeline"))
	if err != nil {
		return rep, nil, err
	}
	defer p.close()
	budget := time.Duration(seconds * pipelineShare * float64(time.Second))
	counts := map[string]int{}
	start := time.Now()
	for i := 0; i < minPipelineOps || time.Since(start) < budget; i++ {
		op, err := gen.Op(i)
		if err != nil {
			return rep, nil, err
		}
		if err := p.run(op); err != nil {
			return rep, nil, fmt.Errorf("traced op %d (%s): %w", i, op.Class, err)
		}
		counts[op.Class]++
		rep.Attempted++
	}
	spans := p.tr.spans
	pipelineMetrics(m, spans)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("in-process pipeline: ops per class %v, %d spans, medians per call", counts, len(spans)),
		"per class, runtime.submit_ms median and trace.coverage: "+classCoverage(spans))

	if err := storeProbes(m, &rep, filepath.Join(dir, "store")); err != nil {
		return rep, spans, err
	}
	probeOp, err := gen.probeOp()
	if err != nil {
		return rep, spans, err
	}
	if err := handlerProbes(m, probeOp, filepath.Join(dir, "handler")); err != nil {
		return rep, spans, err
	}
	if w.Dispatch {
		if err := fleetProbe(m, gen, filepath.Join(dir, "fleet")); err != nil {
			return rep, spans, err
		}
	}
	if err := simProbes(m, &rep, gen); err != nil {
		return rep, spans, err
	}

	cov := m["trace.coverage"].Value
	rep.Correct = rep.Failed == 0
	if cov < coverageLo || cov > coverageHi {
		rep.Correct = false
		rep.Failures = append(rep.Failures, fmt.Sprintf("trace.coverage %.3f outside [%.2f, %.2f]: the layers do not sum to runtime.Submit", cov, coverageLo, coverageHi))
	}
	return rep, spans, nil
}

// liveMetrics fills the metrics only real processes can give: client-side
// latencies and the deltas of the layers' own counters around the timed
// phases.
func liveMetrics(m layerMetrics, rep *Report, live *LiveRun) {
	for _, class := range mixClasses {
		m.set("client.latency_p50_ms."+class, median(live.Lone.latencies(class)))
	}
	busy := live.Busy.latencies("")
	for _, t := range []struct {
		name string
		q    float64
	}{{"client.latency_p90_ms", 0.90}, {"client.latency_p99_ms", 0.99}} {
		if v, ok := tail(busy, t.q, 10); ok {
			m.set(t.name, v)
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s: fewer than 10 of %d busy-phase samples lie beyond it; reads 0", t.name, len(busy)))
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("client tails pooled over %d busy-phase ops at %d callers; per-class medians over %d lone-phase ops", len(busy), live.Busy.Clients, len(live.Lone.Samples)))
	m.set("client.busy_ops_per_s", live.Busy.rate())
	m.set("client.busy_cpu_ms_per_op", live.Busy.cpuPerUnit())
	m.set("client.machine_slowdown", slowdown(live.Lone.Ref))
	m.set("client.http_floor_us", live.HTTPFloorUS)
	m.set("qmlserve.rss_peak_mb", live.RSSPeakMB)

	d := func(name string) float64 { return delta(live.Before, live.After, name) }
	ops := float64(live.TimedOps)
	m.set("qmlserve.gc_cycles", d("go_gc_cycles_total"))
	m.set("jobs.queue_wait_ms", 1000*d("jobs_queue_wait_seconds_sum")/d("jobs_queue_wait_seconds_count"))
	m.set("jobs.run_ms", 1000*d("jobs_run_seconds_sum")/d("jobs_run_seconds_count"))
	m.set("jobs.cache_hit_ratio", d("jobs_cache_hits_total")/d("jobs_submitted_total"))
	m.set("jobs.rejected", d("jobs_rejected_total"))
	fd := func(name string) float64 { return delta(live.FrontBefore, live.FrontAfter, name) }
	m.set("fleet.submit_rtt_ms", 1000*fd("fleet_roundtrip_seconds_sum")/fd("fleet_roundtrip_seconds_count"))
	m.set("fleet.forwards_per_op", fd("fleet_forwarded_total")/ops)
	m.set("fleet.affinity_hit_ratio", fd("fleet_affinity_hits_total")/(fd("fleet_affinity_hits_total")+fd("fleet_affinity_spills_total")))
}

// pipeline runs ops through the layers in-process the way a node does,
// one call after the other, with a span around each.
type pipeline struct {
	tr     *Tracer
	st     *store.Store
	shards int
	jobSeq int
}

// openStore opens a journal under the policy of the timed runs, so that
// the layers' in-process times are those of the configuration the
// end-to-end numbers come from; what the barrier adds is storeProbes'.
func openStore(dir string) (*store.Store, error) {
	policy, err := store.ParseSyncPolicy(gatedFsync)
	if err != nil {
		return nil, err
	}
	return store.Open(dir, store.Options{Sync: policy})
}

func newPipeline(dir string) (*pipeline, error) {
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	return &pipeline{tr: newTracer(), st: st, shards: runtime.NumCPU()}, nil
}

func (p *pipeline) close() { p.st.Close() }

// appendEvent journals one lifecycle event as a store.append span.
func (p *pipeline) appendEvent(ev store.Event) error {
	ev.At = time.Now()
	return p.tr.span("store.append", func() error { return p.st.Append(ev) })
}

// run sends one op through the layers: what the HTTP handler, the pool
// and a worker do for it, then (under "layers") the calls runtime.Submit
// makes, each timed on its own on the same input.
func (p *pipeline) run(op Op) error {
	p.tr.op = op.Index
	p.jobSeq++
	id := fmt.Sprintf("job-%08d", p.jobSeq)
	return p.tr.span("op."+op.Class, func() error {
		var b *bundle.Bundle
		var key string
		err := p.tr.span("bundle.from_json", func() (err error) {
			b, err = bundle.FromJSON(op.Body, qop.ValidateOptions{})
			return err
		})
		if err != nil {
			return err
		}
		if op.Points > 0 {
			return p.runSweep(id, b)
		}
		if err := p.tr.span("jobs.cache_key", func() (err error) { key, err = jobs.CacheKey(b); return err }); err != nil {
			return err
		}
		if op.Hot >= 0 {
			// A cache hit journals its submission and its completion and
			// never reaches the engine.
			if err := p.appendEvent(store.Event{T: store.EvSubmitted, Job: id, Key: key}); err != nil {
				return err
			}
			return p.appendEvent(store.Event{T: store.EvDone, Job: id, CacheHit: true, Result: key})
		}
		raw, err := json.Marshal(b)
		if err != nil {
			return err
		}
		if err := p.appendEvent(store.Event{T: store.EvSubmitted, Job: id, Key: key, Bundle: raw}); err != nil {
			return err
		}
		if err := p.appendEvent(store.Event{T: store.EvStarted, Job: id, Shards: p.shards}); err != nil {
			return err
		}
		var res *result.Result
		err = p.tr.span("runtime.submit", func() (err error) {
			res, err = rt.Submit(b, rt.Options{Shards: p.shards, Stages: p.sampleStage})
			return err
		})
		if err != nil {
			return err
		}
		if err := p.tr.span("store.put_result", func() error { return p.st.PutResult(key, res) }); err != nil {
			return err
		}
		if err := p.appendEvent(store.Event{T: store.EvDone, Job: id, Result: key}); err != nil {
			return err
		}
		return p.tr.span("layers", func() error { return p.jobLayers(b) })
	})
}

// sampleStage turns the engine's "sample" stage callback into a span: the
// only public handle on CDF build + sampling. The other stages are timed
// by calling their public functions directly.
func (p *pipeline) sampleStage(stage string, d time.Duration) {
	if stage == "sample" {
		p.tr.ended("sim.sample", d)
	}
}

// execParams reads the shot count and seed a gate job runs with.
func execParams(b *bundle.Bundle) (int, uint64) {
	return b.Context.Exec.Samples, b.Context.Exec.Seed
}

// jobLayers repeats, call by call, what runtime.Submit did for the
// bundle: schema validation, then the engine's own steps.
func (p *pipeline) jobLayers(b *bundle.Bundle) error {
	// runtime.Submit validates the bundle and the backend validates it
	// again before lowering.
	for calls := 0; calls < 2; calls++ {
		if err := p.validate(b); err != nil {
			return err
		}
	}
	if err := p.tr.span("jsonschema.validate", b.ValidateAgainstSchemas); err != nil {
		return err
	}
	if err := p.tr.span("bundle.fingerprint", func() error { _, err := b.Fingerprint(); return err }); err != nil {
		return err
	}
	reg := b.QDTs[0]
	if problem := b.Operators[0]; problem.RepKind == qop.IsingProblem {
		model, err := algolib.IsingModelFromOp(problem, reg.Width)
		if err != nil {
			return err
		}
		var sampled *anneal.Result
		err = p.tr.span("anneal.sample", func() (err error) {
			sampled, err = anneal.SampleModel(model, anneal.Params{NumReads: b.Context.Anneal.NumReads, Seed: b.Context.Exec.Seed})
			return err
		})
		if err != nil {
			return err
		}
		counts := map[uint64]int{}
		for _, s := range sampled.Samples {
			counts[s.Mask] += s.Occurrences
		}
		return p.decode(counts, problem.Result, reg)
	}

	circ, err := p.lowerAndTranspile(b)
	if err != nil {
		return err
	}
	shots, seed := execParams(b)
	var run *sim.Result
	if b.Context.Exec.Options["noise"] != nil {
		err = p.tr.span("sim.run_noisy", func() (err error) {
			run, err = sim.RunNoisy(circ, noiseModel, sim.Options{Shots: shots, Seed: seed, Shards: p.shards})
			return err
		})
	} else {
		var pl *sim.Plan
		if err := p.tr.span("sim.compile", func() (err error) { pl, err = sim.Compile(circ); return err }); err != nil {
			return err
		}
		if err := p.execute(circ, pl); err != nil {
			return err
		}
		// The counts to decode; its sample stage is already in the trace
		// from runtime.Submit's own run.
		run, err = sim.RunPlan(circ, pl, sim.Options{Shots: shots, Seed: seed, Shards: p.shards})
	}
	if err != nil {
		return err
	}
	return p.decode(run.Counts, b.Operators.FinalMeasurement().Result, reg)
}

func (p *pipeline) validate(b *bundle.Bundle) error {
	return p.tr.span("bundle.validate", func() error { return b.Validate(qop.ValidateOptions{}) })
}

// registers is the register table lowering takes.
func registers(b *bundle.Bundle) algolib.Registers {
	regs := algolib.Registers{}
	for _, d := range b.QDTs {
		regs[d.ID] = d
	}
	return regs
}

func (p *pipeline) lowerAndTranspile(b *bundle.Bundle) (*circuit.Circuit, error) {
	var lowered *algolib.Lowered
	if err := p.tr.span("algolib.lower", func() (err error) { lowered, err = algolib.Lower(b.Operators, registers(b)); return err }); err != nil {
		return nil, err
	}
	var tr *transpile.Result
	err := p.tr.span("transpile.transpile", func() (err error) {
		tr, err = transpile.Transpile(lowered.Circuit, transpile.FromContext(b.Context))
		return err
	})
	if err != nil {
		return nil, err
	}
	return tr.Circuit, nil
}

// execute times a fresh state plus the plan's sweep over it.
func (p *pipeline) execute(circ *circuit.Circuit, pl *sim.Plan) error {
	return p.tr.span("sim.execute", func() error {
		st, err := sim.NewState(circ.NumQubits)
		if err != nil {
			return err
		}
		return pl.Execute(st, p.shards)
	})
}

// decode times what every backend does with raw counts: decode them
// through the result schema and sort the entries.
func (p *pipeline) decode(counts map[uint64]int, schema *qop.ResultSchema, reg *qdt.DataType) error {
	return p.tr.span("result.decode_counts", func() error {
		entries, err := result.DecodeCounts(counts, schema, reg)
		if err != nil {
			return err
		}
		(&result.Result{Entries: entries}).Sort()
		return nil
	})
}

// runSweep sends one grid through the layers the way a node's sweep job
// does: bind and key every point, one SubmitSweep whose per-point callback
// persists the point's result, then the parametric path call by call.
func (p *pipeline) runSweep(id string, b *bundle.Bundle) error {
	sw := b.Context.Sweep
	n := len(sw.Points)
	concrete := make([]*bundle.Bundle, n)
	keys := make([]string, n)
	indices := make([]int, n)
	raw, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if err := p.appendEvent(store.Event{T: store.EvSubmitted, Job: id, Bundle: raw, Points: n}); err != nil {
		return err
	}
	if err := p.appendEvent(store.Event{T: store.EvStarted, Job: id, Shards: p.shards}); err != nil {
		return err
	}
	for i := range concrete {
		indices[i] = i
		if err := p.tr.span("bundle.bind_point", func() (err error) { concrete[i], err = b.BindPoint(sw.Points[i]); return err }); err != nil {
			return err
		}
		if err := p.tr.span("jobs.cache_key", func() (err error) { keys[i], err = jobs.CacheKey(concrete[i]); return err }); err != nil {
			return err
		}
	}
	err = p.tr.span("runtime.submit", func() error {
		return rt.SubmitSweep(b, concrete, indices, rt.Options{Shards: p.shards, Stages: p.sampleStage}, func(i int, res *result.Result) error {
			return p.tr.span("store.put_result.point", func() error { return p.st.PutResult(keys[i], res) })
		})
	})
	if err != nil {
		return err
	}
	if err := p.appendEvent(store.Event{T: store.EvDone, Job: id, Results: keys}); err != nil {
		return err
	}
	return p.tr.span("layers", func() error { return p.sweepLayers(b) })
}

// sweepLayers repeats what runtime.SubmitSweep did: validate, lower and
// transpile the symbolic template, compile it once, then bind, execute
// and decode every point.
func (p *pipeline) sweepLayers(b *bundle.Bundle) error {
	if err := p.validate(b); err != nil {
		return err
	}
	if err := p.tr.span("jsonschema.validate", b.ValidateAgainstSchemas); err != nil {
		return err
	}
	sw := b.Context.Sweep
	var lowered *algolib.Lowered
	err := p.tr.span("algolib.lower", func() (err error) {
		lowered, err = algolib.LowerParametric(b.Operators, registers(b), sw.Params)
		return err
	})
	if err != nil {
		return err
	}
	var tr *transpile.Result
	err = p.tr.span("transpile.transpile", func() error {
		res, ok, err := transpile.TranspileParametric(lowered.Circuit, transpile.FromContext(b.Context))
		if err == nil && !ok {
			err = fmt.Errorf("the sweep template left the parametric transpile path")
		}
		tr = res
		return err
	})
	if err != nil {
		return err
	}
	var pp *sim.ParamPlan
	if err := p.tr.span("sim.compile_parametric", func() (err error) { pp, err = sim.CompileParametric(tr.Circuit); return err }); err != nil {
		return err
	}
	shots, seed := execParams(b)
	for _, point := range sw.Points {
		var pl *sim.Plan
		if err := p.tr.span("sim.bind", func() (err error) { pl, err = pp.Bind(point); return err }); err != nil {
			return err
		}
		if err := p.execute(tr.Circuit, pl); err != nil {
			return err
		}
		run, err := sim.RunPlan(tr.Circuit, pl, sim.Options{Shots: shots, Seed: seed, Shards: p.shards})
		if err != nil {
			return err
		}
		if err := p.decode(run.Counts, b.Operators.FinalMeasurement().Result, b.QDTs[0]); err != nil {
			return err
		}
	}
	return nil
}

// pipelineMetrics reduces the pipeline's spans to per-call medians and to
// trace.coverage, the share of runtime.Submit its timed children account
// for.
func pipelineMetrics(m layerMetrics, spans []Span) {
	us := func(name string) float64 { return median(durationsUS(spans, name)) }
	m.set("bundle.from_json_us", us("bundle.from_json"))
	m.set("bundle.validate_us", us("bundle.validate"))
	m.set("bundle.fingerprint_us", us("bundle.fingerprint"))
	m.set("jsonschema.validate_us", us("jsonschema.validate"))
	m.set("jobs.cache_key_us", us("jobs.cache_key"))
	m.set("store.append_us", us("store.append"))
	m.set("store.put_result_us", median(append(durationsUS(spans, "store.put_result"), durationsUS(spans, "store.put_result.point")...)))
	m.set("runtime.submit_ms", us("runtime.submit")/1e3)
	m.set("algolib.lower_us", us("algolib.lower"))
	m.set("transpile.transpile_us", us("transpile.transpile"))
	m.set("sim.compile_us", us("sim.compile"))
	m.set("sim.execute_ms", us("sim.execute")/1e3)
	m.set("sim.sample_ms", us("sim.sample")/1e3)
	m.set("sim.run_noisy_ms", us("sim.run_noisy")/1e3)
	m.set("sim.compile_parametric_us", us("sim.compile_parametric"))
	m.set("sim.bind_us", us("sim.bind"))
	m.set("bundle.bind_point_us", us("bundle.bind_point"))
	m.set("result.decode_counts_us", us("result.decode_counts"))
	m.set("anneal.sample_ms", us("anneal.sample")/1e3)

	m.set("trace.coverage", coverage(spans, ""))
}

// coverage is the summed duration of runtime.submit's timed children over
// the summed duration of runtime.submit itself, over the ops of one class
// ("" for all).
func coverage(spans []Span, class string) float64 {
	// A span belongs to the class of its root, the op.<class> span.
	var children, parents float64
	isChild := map[string]bool{}
	for _, name := range coverageChildren {
		isChild[name] = true
	}
	for _, s := range spans {
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		if class != "" && root.Name != "op."+class {
			continue
		}
		switch {
		case s.Name == "runtime.submit":
			parents += (s.End - s.Start).Seconds()
		case isChild[s.Name]:
			children += (s.End - s.Start).Seconds()
		}
	}
	return children / parents
}

func classCoverage(spans []Span) string {
	var parts []string
	for _, class := range []string{classGate, classAnneal, classNoisy, classSim20, classSweep} {
		c := coverage(spans, class)
		if math.IsNaN(c) {
			continue
		}
		var submits []float64
		for _, s := range spans {
			if s.Name == "runtime.submit" && spans[s.Parent].Name == "op."+class {
				submits = append(submits, millis(s.End-s.Start))
			}
		}
		parts = append(parts, fmt.Sprintf("%s %.3g ms %.3f", class, median(submits), c))
	}
	return strings.Join(parts, ", ")
}

// storeProbes times the journal append with and without its fsync on the
// run's data directory; the difference is what the disk adds.
func storeProbes(m layerMetrics, rep *Report, dir string) error {
	timeAppends := func(policy store.SyncPolicy, sub string) (float64, error) {
		st, err := store.Open(filepath.Join(dir, sub), store.Options{Sync: policy})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		var times []float64
		for i := 0; i < probeCalls; i++ {
			ev := store.Event{T: store.EvSubmitted, Job: fmt.Sprintf("job-%08d", i), At: time.Now(), Key: "sha256:probe"}
			start := time.Now()
			if err := st.Append(ev); err != nil {
				return 0, err
			}
			times = append(times, micros(time.Since(start)))
		}
		return median(times), nil
	}
	synced, err := timeAppends(store.SyncAlways, "always")
	if err != nil {
		return err
	}
	unsynced, err := timeAppends(store.SyncNone, "none")
	if err != nil {
		return err
	}
	m.set("store.fsync_disk_us", math.Max(0, synced-unsynced))
	rep.Notes = append(rep.Notes, fmt.Sprintf("store.fsync_disk_us: Append under SyncAlways (%.0f us) minus under SyncNone (%.0f us) on %s; informational, it measures this machine's disk", synced, unsynced, fsType(dir)))
	return nil
}

// serve runs one request through a handler in-process and returns the
// recorder.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// handlerProbes times the HTTP handler's three calls of the client
// protocol on a pool whose cache already holds the op, so that no
// execution hides in them: decode + validate + key + journal on submit,
// the status document, the result encode.
func handlerProbes(m layerMetrics, op Op, dir string) error {
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	nproc := runtime.NumCPU()
	pool := jobs.NewPool(jobs.Options{Workers: nproc, QueueDepth: 256, MaxShards: nproc, Store: st})
	defer pool.Close()
	h := jobs.NewHandler(pool)

	resultPath := func(id string) string {
		if op.Points > 0 {
			return "/v1/sweeps/" + id
		}
		return "/v1/jobs/" + id + "/result"
	}
	var submit, status, res []float64
	for i := 0; i <= probeCalls; i++ {
		start := time.Now()
		rec := serve(h, http.MethodPost, op.Path, op.Body)
		submitUS := micros(time.Since(start))
		var sub submitDoc
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &sub) != nil {
			return fmt.Errorf("handler probe: POST %s = %d: %s", op.Path, rec.Code, rec.Body)
		}
		if rec := serve(h, http.MethodGet, "/v1/jobs/"+sub.ID+"?wait="+longPoll, nil); rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: waiting for %s = %d: %s", sub.ID, rec.Code, rec.Body)
		}
		start = time.Now()
		rec = serve(h, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
		statusUS := micros(time.Since(start))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status of %s = %d: %s", sub.ID, rec.Code, rec.Body)
		}
		start = time.Now()
		rec = serve(h, http.MethodGet, resultPath(sub.ID), nil)
		resultUS := micros(time.Since(start))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler probe: result of %s = %d: %s", sub.ID, rec.Code, rec.Body)
		}
		if i == 0 {
			continue // the first submission executes; the rest are served from the cache
		}
		submit, status, res = append(submit, submitUS), append(status, statusUS), append(res, resultUS)
	}
	m.set("jobs.http_submit_us", median(submit))
	m.set("jobs.http_status_us", median(status))
	m.set("jobs.http_result_us", median(res))
	return nil
}

// fleetProbe measures the dispatcher tax in-process: the client protocol
// through a dispatcher fronting two workers, minus the same protocol sent
// straight to one worker, over unique jobs of the mix's gate class (a
// cached job would be answered at the forward and never polled).
func fleetProbe(m layerMetrics, gen *Generator, dir string) error {
	nproc := runtime.NumCPU()
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := openStore(filepath.Join(dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return err
		}
		defer st.Close()
		pool := jobs.NewPool(jobs.Options{Workers: max(1, nproc/2), QueueDepth: 256, MaxShards: max(1, nproc/2), Store: st})
		defer pool.Close()
		srv := httptest.NewServer(jobs.NewHandler(pool))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	st, err := openStore(filepath.Join(dir, "dispatcher"))
	if err != nil {
		return err
	}
	defer st.Close()
	d, err := fleet.New(fleet.Options{Workers: urls, Store: st})
	if err != nil {
		return err
	}
	defer d.Close()
	front := httptest.NewServer(fleet.NewHandler(d))
	defer front.Close()

	const calls = 15
	next := 0
	timeOps := func(base string) (float64, error) {
		c := newClient(base, 1)
		defer c.close()
		var times []float64
		for len(times) < calls {
			op, err := gen.Op(next)
			next++
			if err != nil {
				return 0, err
			}
			if op.Class != classGate {
				continue
			}
			start := time.Now()
			if _, err := c.Do(op); err != nil {
				return 0, err
			}
			times = append(times, millis(time.Since(start)))
		}
		return median(times), nil
	}
	through, err := timeOps(front.URL)
	if err != nil {
		return fmt.Errorf("fleet probe through the dispatcher: %w", err)
	}
	direct, err := timeOps(urls[0])
	if err != nil {
		return fmt.Errorf("fleet probe direct to a worker: %w", err)
	}
	m.set("fleet.overhead_ms", through-direct)
	return nil
}
