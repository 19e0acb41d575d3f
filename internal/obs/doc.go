// Package obs is the middle layer's observability subsystem: a
// dependency-free metrics registry with Prometheus text exposition, job
// trace IDs and span logs, structured-logging helpers, and the HTTP
// middleware the serving layer wraps around every handler.
//
// # Metrics
//
// A Registry holds named instruments — monotonic Counters, settable
// Gauges, gauges computed at scrape time (GaugeFunc), and fixed-bucket
// latency Histograms — and renders them in the Prometheus text
// exposition format (version 0.0.4) via WriteText or the Handler an
// HTTP server mounts on GET /metrics. Instrument lookups are
// get-or-create: asking twice for the same name (and label set) returns
// the same instrument, so independent subsystems sharing one registry
// cannot double-register. All instruments are lock-free on the hot path
// (atomic increments and observes, a few nanoseconds each — see the
// package benchmarks) and safe for concurrent use.
//
// Naming conventions, followed throughout the repo:
//
//   - snake_case metric names prefixed by their subsystem: jobs_ (worker
//     pool), store_ (journal + result log), fleet_ (dispatcher), sim_
//     (statevector engine), go_ (runtime), http_ (serving middleware).
//   - Counters end in _total; durations are histograms in seconds ending
//     in _seconds; sizes end in _bytes.
//   - build_info is a constant 1-valued gauge whose labels (go_version,
//     revision, modified) identify the binary — fleet operators diff it across
//     workers to spot mixed-version fleets.
//
// Labeled instruments come in two forms. Ad-hoc Label arguments on
// Counter/Gauge/Histogram create one distinct instrument per label set.
// CounterFamily and HistogramFamily are the bounded-cardinality form:
// one label name whose complete value enum is declared at registration,
// with every child created eagerly so hot paths index a pre-resolved
// slice (At(ordinal)) with no lock, map lookup, or allocation — the
// shape the simulator's per-kernel-kind instruments need. The enum is
// capped at 32 values and can never grow afterwards, which is what
// keeps the /metrics exposition bounded.
//
// The conventions are enforced mechanically: the obsconv analyzer in
// internal/lint (run by cmd/simvet in CI) flags non-snake_case names,
// counters missing _total (and non-counters claiming it or the
// histogram-owned _count/_sum/_bucket suffixes), duplicate
// registrations within one construction, and same-name registrations
// under two instrument kinds — the clash this registry would otherwise
// only catch by panicking at runtime. Family registrations are policed
// too: the label name must be a lower-snake_case literal and the value
// set a literal []string (non-empty, duplicate-free, at most 32
// entries), so an unbounded value — a job or trace ID — can never leak
// in as a label.
//
// Histograms use DefBuckets by default: exponential latency bounds from
// 10µs to 10s, chosen so both journal fsyncs (~100µs–10ms) and
// 20-qubit statevector executions (~100ms–10s) land mid-range.
// Quantiles (p50/p90/p99) are derivable from any histogram via
// Histogram.Quantile, which interpolates linearly inside the owning
// bucket — the same estimate Prometheus' histogram_quantile computes
// server-side.
//
// RegisterRuntime adds Go runtime gauges (goroutines, heap and total
// memory, GC cycles and pause p99) sourced from runtime/metrics and
// refreshed at scrape time; RegisterBuildInfo adds the build_info
// gauge from debug.ReadBuildInfo.
//
// ParseExposition is the strict counterpart to WriteText: a
// line-format parser over a scraped /metrics body that validates metric
// and label grammar, TYPE declarations, and histogram invariants
// (ascending le bounds, monotonic cumulative counts, +Inf == _count).
// The process-level acceptance tests scrape real servers through it.
//
// # Tracing
//
// Every job carries a trace ID across the fleet. The contract:
//
//   - POST /v1/jobs accepts an inbound X-Trace-Id header (1–128 chars of
//     [A-Za-z0-9._-]); absent or invalid, the server generates a random
//     16-byte hex ID. The accepted ID is echoed in the response header
//     and the submit/status documents ("trace_id").
//   - The fleet dispatcher forwards the same header with the job to its
//     worker, records the ID in every journal event and job record, and
//     both dispatcher and worker log it on every lifecycle transition —
//     one grep for the ID reconstructs the job's fleet-wide life.
//   - Each job accumulates a span log (queued, assigned, started,
//     transpile/compile/execute/sample stage timings, persisted, done)
//     with monotonic timestamps, surfaced in GET /v1/jobs/{id}.
//
// # Profiling and the flight recorder
//
// qmlserve -debug-addr brings up a second listener serving
// net/http/pprof under /debug/pprof/ plus a /metrics alias, so CPU and
// heap profiles never contend with (or get rate-limited by) production
// traffic:
//
//	qmlserve -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//	curl -s http://127.0.0.1:6060/debug/pprof/goroutine?debug=2
//
// The same listener serves GET /debug/events, the flight recorder: a
// fixed-size lock-free ring (Flight) of the most recent structured
// events from every layer — job transitions, kernel-batch completions,
// fleet forwards/detaches/ejects/readmits, journal fsync stalls.
// Recording costs one small allocation plus one atomic store per event,
// so it is always on; readers snapshot without blocking writers. The
// Recover middleware appends the ring's tail to every panic report, so
// a post-mortem starts with the last things the process did rather
// than with log archaeology. Library layers record through the
// process-wide ring (obs.Record / obs.RecordDur) under the fixed kind
// enum (FlightJobQueued ... FlightSweepRange) — per-job identity goes
// in the event's Job field, never in a new kind.
//
// Kernel-granular simulator profiling (per-kernel tables on job status
// documents, opt-in per submission) lives in internal/sim and the
// serving layer; see the root package doc. Its always-on aggregates —
// the sim_kernels_total and sim_kernel_seconds families — live here.
package obs
