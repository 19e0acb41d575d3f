// Package repro is a Go reproduction of "An HPC-Inspired Blueprint for a
// Technology-Agnostic Quantum Middle Layer" (Markidis, Netzer, Pennati,
// Peng — SC Workshops '25, arXiv:2510.07079).
//
// The middle layer lets a program state its intent once — typed quantum
// registers (internal/qdt) and logical operator descriptors (internal/qop)
// — while execution policy travels separately in a context descriptor
// (internal/ctxdesc). The same intent bundle (internal/bundle) then runs
// on a gate-model statevector engine, a simulated annealer, or a pulse
// model (internal/backend) without modification. Each descriptor's typed
// Validate enforces every rule of its JSON Schema (internal/schemas), so
// a malformed bundle is refused before any engine sees it; the schemas
// themselves check artifacts other tools write (cmd/qmlvalidate).
//
// The statevector engine (internal/sim) is a compile-then-execute kernel
// machine: circuits compile into fused kernel plans (single-qubit runs
// fold into one matrix, diagonal gates merge into phase tables, CX/CZ/CP/
// SWAP chains on a qubit pair fold with their surrounding single-qubit
// gates into dense 4×4 kernels, lone controlled permutations specialize)
// swept by a persistent shard pool that barriers between kernels. A
// dense 4×4 kernel that finalizes diagonal — a CX chain around phase
// gates, such as the QAOA ZZ phase — executes on a diagonal sweep: 4
// complex multiplies per amplitude quadruple instead of the dense
// sweep's 16 multiplies and 12 adds; one that finalizes block-diagonal
// executes as two 2×2 blocks.
// The per-job shard grant is a scheduling decision of the serving layer
// — see below.
//
// Amplitudes live in a structure-of-arrays layout: split real and
// imaginary float64 planes, each 64-byte aligned, so sweep bodies are
// float loops over contiguous streams instead of interleaved complex128
// arithmetic; kernel matrices and phase tables split once at compile
// time. The gc compiler emits them as scalar instructions; on amd64 with
// AVX the 2×2, block, dense 4×4 and diagonal sweeps run, at every
// stride, in hand-written 4-lane bodies that round exactly as the Go
// expressions do, so amplitudes do not depend on the CPU. Shard workers
// first-touch their own contiguous plane ranges at state creation,
// placing pages with their owners on NUMA machines. The
// split expressions group exactly as complex128 arithmetic, so sampled
// counts for a fixed bundle+shots+seed are bit-identical to the
// interleaved layout — the result cache and fleet re-run guarantees
// rest on this.
//
// # Serving layer
//
// On top of the one-shot runtime sits the asynchronous serving subsystem
// (internal/jobs): a job scheduler in the consumption model of production
// quantum services (IBM Quantum's job API, D-Wave Leap). A jobs.Pool
// accepts bundles, assigns job IDs, and executes them on a fixed worker
// pool fed from a bounded queue — saturation rejects immediately
// (backpressure) instead of stalling submitters. Identical submissions
// (same canonical bundle JSON, shots and seed) are deduplicated through a
// content-addressed LRU result cache, sound because every stochastic
// stage is seeded; a duplicate of a job that is currently executing
// coalesces onto the in-flight run instead of executing twice. Each job
// records its lifecycle with queue-wait and run-time metrics. The
// lifecycle itself — the states, the legal moves, the journal line each
// writes — is written once, on jobs.Table.Transition, for this tier and
// the fleet dispatcher alike: both keep a jobs.Record per job in a
// jobs.Table, which writes the line inside the move.
//
// The pool is also the statevector shard scheduler: a job starting into
// an otherwise idle pool is granted every shard (one big simulation spans
// all cores), while jobs running alongside others stay single-shard so
// concurrent throughput is undisturbed. POST /v1/jobs?shards=N pins the
// grant per job; /metrics counts jobs_wide_total and jobs_coalesced_total.
//
// The serving layer is durable (internal/jobs/store): with a data
// directory attached, every job transition appends to an append-only
// JSONL journal — the line is in the file before the move is readable,
// an acknowledgment waits for its line's fsync, concurrent ones sharing
// one barrier, and nothing else waits for the disk; the journal is
// compacted once terminal records dominate — and results persist in an
// append-only, checksummed result log of segments, found by content
// address through an in-memory index, so executing a job writes its
// result with one write to an open file and looking one up touches the
// disk only to read it. A restart replays the journal and rescans the
// result log — terminal jobs keep answering
// status/result lookups, work that was queued or running when the
// process died is requeued under its original ID and re-run to the same
// counts (execution is deterministic in bundle+shots+seed), and a torn
// final journal line or result record from a mid-append crash is
// dropped, not fatal. The result files of older builds (one file per
// result) are imported into the log on the first start.
//
// A result takes two forms, and each is appended straight from the
// result's entry table rather than built as a tree and reflected over —
// per outcome it carries bitstring, index, typed value and count, which
// makes it the heaviest thing this tier produces. The served form, the
// /v1 result documents, is encoded in internal/jobs (resultdoc.go) and a
// sweep's document leaves point by point; the stored form, the body of a
// result log record, in internal/jobs/store (results.go), byte for byte
// what json.Marshal of a result.Result always wrote — the body format is
// unchanged and unversioned, and results of any build serve any other.
// Both reproduce encoding/json's output exactly and are held to it by a
// golden wire capture, a committed result file and a fuzz target
// (jobs.FuzzResultEncoding); a result no JSON can carry (a NaN in an
// engine's meta) is refused before the first byte, as a 500.
//
// # Fleet dispatch
//
// The serving layer scales past one machine with internal/fleet: a
// dispatcher that fronts N worker qmlserve nodes over the same /v1
// protocol the workers speak, so workers need zero changes to join a
// fleet and clients cannot tell the front-end from a single node
// (qmlserve -dispatch w1,w2,...). The protocol is written down once:
// jobs.Service is /v1 as Go calls, a worker's Pool and the fleet's
// Dispatcher both implement it, and the one jobs.NewHandler — whose doc
// comment is the route table — serves either; a dispatcher's status
// documents only add "worker", "remote", "reforwards" and "ranges".
// Behind it a forwarded job is a sweep of one range: one run, forward,
// detach and observe over (job, range) drive plain jobs and scattered
// sweeps through the shared lifecycle. Routing is load-aware (least
// outstanding dispatched jobs) with cache-key affinity via consistent
// hashing — identical bundles land on the worker that already caches
// their result, and duplicates of an in-flight job are pinned to its
// worker so coalescing keeps working fleet-wide. A prober ejects workers
// after consecutive failed liveness probes (their keys rehash minimally to
// the survivors) and readmits them on recovery; every dispatcher→worker
// call carries a timeout so a hung node can never wedge a dispatcher
// goroutine. With a journal attached the dispatcher records every
// accepted job and worker assignment: a worker SIGKILLed mid-job has its
// jobs re-forwarded and re-run to identical counts elsewhere, and a
// dispatcher restart replays the journal, watches workers for in-flight
// state, and keeps answering status/result for pre-crash jobs. The
// dispatcher follows a forwarded job with a revisioned long-poll parked
// on its worker (GET /v1/jobs/{id}?wait=D&rev=N returns the moment the
// job's "rev" passes N), not on a polling cadence, so the fleet hop adds
// a few milliseconds to a short job rather than a poll interval.
//
// # Parametric plans and sweeps
//
// Variational workloads (QAOA, QML training) submit thousands of
// circuits that differ only in rotation angles. The stack separates
// circuit structure from numeric parameters once at the bottom and
// exploits it at every layer above. Gate angles may be symbolic: an
// algolib descriptor carries a "$name" marker instead of a number
// (algolib.BuildQAOASymbolic, SymbolicParam) and LowerParametric emits
// the same circuit a concrete lowering would, with ParamRefs in place
// of constants. sim.CompileParametric compiles that circuit ONCE into a
// ParamPlan whose fusion structure, statistics and kernel order are
// bind-invariant; Bind(values) re-derives only the kernels whose
// matrices actually depend on a parameter and returns an ordinary Plan.
//
// One layer up, a bundle whose context carries a sweep block (parameter
// names + a point grid) is a sweep job: jobs.Pool.SubmitSweep accepts
// the whole grid as ONE job — one journal record, one queue slot —
// fanning out per point. A sweep and a plain job are the same intent under
// two contexts, and the pool has one admission and one executor for both:
// a plain job is a grid of one point, and an identical sweep submitted
// while one runs coalesces onto it as any in-flight duplicate does. A
// sweep bundle POSTed to /v1/jobs is refused with 400, on both tiers. Every
// point is materialized by
// bundle.BindPoint into exactly the concrete bundle a caller would have
// submitted for that point alone. Per-point cache keys, fingerprints
// and sampled counts are therefore bit-identical to individual
// concrete-angle submissions — the determinism invariant the cache and
// replication story rests on.
//
// How a grid is scheduled onto cores is the middle layer's own decision
// and never shows in a result. A sweep job's core grant G (the pool's
// shard grant: -max-shards for a lone job, one beside other work) is
// spent as L lanes × G/L shards: runtime.Prepare validates the template
// once and returns the handle every job runs its points through — the
// one engine contract, Prepare once and Run each point, with a plain job
// as one point. The gate engine lowers, transpiles and compiles a
// template with a parametric form once; every other point runs its
// concrete bundle. Run is safe for concurrent use, and the pool runs
// L = min(G, points still to execute) goroutines that each pull the next
// point, execute it through sim.RunPlan like any plain job (each point
// starts on the arena, planes, CDF and scratch, that the simulator's
// previous run of that width left, and resets it), persist it and
// publish it.
// Cores go to whole points before they go to shards of one small state,
// whose every kernel would end in a barrier; a lone point, or a lone
// large state, degenerates to one lane × G shards. One rule narrows L,
// read off the input and not a setting: the lanes together never hold
// more amplitudes than the largest single job the engine admits,
// L·2^n ≤ 2^sim.MaxQubits. Points therefore complete out of order —
// points_done is a count, not a prefix of the grid — and the first
// failing point stops every lane. runtime.SubmitSweep is the serial
// driver over the same handle: one goroutine, points in the order given.
//
// Over HTTP the grid is POST /v1/sweeps and
// the indexed result set is GET /v1/sweeps/{id}; GET /v1/jobs/{id}
// supports long-polling via ?wait=<duration> — and watching per-point
// progress via &rev=<revision> — on both tiers. The fleet
// dispatcher scatters a sweep point-range-wise across healthy workers
// as independent sub-sweeps and re-forwards only the unfinished ranges
// when a worker dies; the merged, re-indexed result set is
// indistinguishable from a single-node run of the same grid.
//
// # Observability
//
// Every layer reports through internal/obs, a stdlib-only telemetry
// package: atomic counters, gauges and fixed-bucket histograms in a
// named registry, exposed in Prometheus text format on GET /metrics
// (worker and dispatcher alike), the one surface every counter is read
// from; a dispatcher adds per-worker health and outstanding-job gauges.
// Histograms time the stages that matter: queue wait, compile/execute/
// sample inside the engine, journal append and fsync, and the
// dispatcher→worker round trip.
//
// # Profiling and the flight recorder
//
// Kernel-granular execution profiling is opt-in per submission: POST
// /v1/jobs (or /v1/sweeps) with a top-level "profile": true flag — or
// ?profile=true — runs the statevector plan with per-kernel timers on,
// and the job's status document gains a "profile" kernel table next to
// the span log: one row per compiled kernel with its kind, qubit
// support mask, wall time, per-shard min/max sweep times and the
// max/mean imbalance ratio. The table's total tracks the execute stage
// span, so an operator reads exactly where a slow job's time went —
// and whether the shards shared it evenly — from the status endpoint
// alone. Profiled sweeps aggregate per-point tables into per-kind
// totals; the fleet dispatcher forwards the flag to whichever worker
// runs the job (it survives re-forwarding after a worker death) and
// proxies the table back opaquely. Profiling is observational only:
// counts are bit-identical with it on or off, and profiled submissions
// cache under a distinct key so a status document's kernel table is
// deterministic in the submission. Independent of the opt-in profiler,
// every executed kernel feeds always-on per-kind labeled instruments
// (sim_kernels_total, sim_kernel_seconds) on /metrics.
//
// The flight recorder (obs.Flight) is the always-on black box: a
// fixed-size lock-free ring of recent structured events — job
// transitions, kernel-batch completions, fleet forwards/detaches/
// ejects/readmits, journal fsync stalls — dumped as JSON at
// GET /debug/events on the -debug-addr listener and appended to every
// panic report, so a post-mortem starts from the last things the
// process did.
//
// Work is traceable fleet-wide: POST /v1/jobs accepts (or generates,
// then echoes) an X-Trace-Id; the dispatcher forwards it to whichever
// worker runs the job, both tiers journal it with every event, and
// GET /v1/jobs/{id} returns it with a per-job span log (queued →
// assigned → started → done, with durations) on either tier. All
// process output is structured log/slog (-log-format=text|json) tagged
// with trace, job and worker fields, and -debug-addr opts into a
// separate listener serving net/http/pprof plus a second /metrics.
// Handlers are wrapped in panic-recovery middleware that logs the
// stack and counts http_panics_total instead of killing the process.
//
// # Invariants and static enforcement
//
// The guarantees above are load-bearing: the result cache, crash
// requeue and fleet re-forwarding assume a fixed bundle+shots+seed
// samples bit-identical counts; the dispatcher assumes no fsync ever
// runs under its lock; the SoA sweeps assume no interleaved complex128
// arithmetic creeps back in; and the durability story assumes journal
// errors are never silently dropped. Rather than living in doc comments
// and reviewer memory, these contracts are enforced mechanically by
// cmd/simvet, a stdlib-only static-analysis driver over the custom
// analyzer suite in internal/lint (determinism, lockblock, soacomplex,
// obsconv, journalerr — see that package's doc for each contract and
// the //lint:ignore annotation syntax). CI runs
//
//	go run ./cmd/simvet ./...
//
// as a required gate alongside vet/build/test, so every future change
// is checked against the invariants automatically.
//
// Two consumers wrap the pool. cmd/qmlserve exposes it over HTTP
// (stdlib net/http) speaking the job.json schema (every route, document
// and status code: jobs.NewHandler):
//
//	qmlserve -addr :8080 -workers 8 -queue 256 -cache 4096 -data-dir /var/lib/qmlserve
//	curl -s -X POST --data-binary @job.json localhost:8080/v1/jobs
//	curl -s localhost:8080/v1/jobs/job-00000001          # lifecycle + timing
//	curl -s localhost:8080/v1/jobs/job-00000001/result   # decoded entries
//	curl -s 'localhost:8080/v1/jobs?state=done'          # history, survives restarts
//	curl -s localhost:8080/v1/engines                    # registry contents
//	curl -s localhost:8080/metrics                       # counters incl. jobs_cache_hits_total
//
// and cmd/qmlrun -parallel runs a batch of job files concurrently on the
// same scheduler. The backend registry is concurrency-safe and accepts
// injected engines via backend.Register, which is how the jobs tests
// substitute fakes.
//
// See benchmark/README.md for the serving benchmark and its metrics, and
// CHANGES.md for the record of each change. paper_test.go reproduces the
// paper's evaluation as one asserted table, one line per quantity:
//
//	go test -run '^TestPaper$' -v .
package repro
