// Command qmlserve runs the middle layer as an HTTP job service: the
// queued, job-ID-addressed consumption model of production quantum
// backends (IBM Quantum's job API, D-Wave Leap), backed by the
// internal/jobs worker pool and content-addressed result cache.
//
//	qmlserve -addr :8080 -workers 8 -queue 256 -cache 4096 -data-dir /var/lib/qmlserve
//
// Submit the quickstart bundle and poll it:
//
//	curl -s -X POST --data-binary @job.json localhost:8080/v1/jobs
//	  → {"id":"job-00000001","state":"queued","cache_hit":false,"rev":0}
//	curl -s localhost:8080/v1/jobs/job-00000001
//	  → {"id":"job-00000001","state":"done","engine":"gate.aer_simulator",...}
//	curl -s localhost:8080/v1/jobs/job-00000001/result
//	  → {"engine":"gate.aer_simulator","samples":10000,"entries":[...]}
//	curl -s 'localhost:8080/v1/jobs?state=done&limit=20'   # history listing
//	curl -s localhost:8080/v1/engines
//	curl -s localhost:8080/metrics                         # every counter, Prometheus text format
//
// Every route, document, status code and the long-poll semantics are
// specified once, on jobs.NewHandler; what follows is the operator's view.
//
// Re-POSTing an identical bundle (same intent, context, shots, seed)
// returns a new job ID already in state "done" with "cache_hit": true —
// the result is served from the content-addressed cache without
// re-execution, counted in jobs_cache_hits_total on /metrics. A duplicate
// of a job that is *currently executing* coalesces onto it instead of
// running twice ("coalesced": true in its status, jobs_coalesced_total).
//
// The pool doubles as the statevector shard scheduler: a job that starts
// while the pool is otherwise idle is granted -max-shards parallel shards
// (default GOMAXPROCS) so one big simulation spans every core, while jobs
// running alongside others stay single-shard. A sweep spends the same
// grant on concurrent points first (lanes × shards, see internal/jobs).
// POST /v1/jobs?shards=N pins the grant per job; jobs_wide_total counts
// the jobs granted more than one shard.
//
// A parameter sweep — one bundle whose context carries a sweep block
// (parameter names + point grid) — submits as ONE job via POST
// /v1/sweeps: one journal record, one queue slot, the parametric plan
// compiled once and bound per point, every point's counts and cache key
// bit-identical to submitting that point concretely. GET
// /v1/sweeps/{id} returns the indexed per-point result set, and GET
// /v1/jobs/{id} reports grid progress (points/points_done). Status
// polls long-poll with ?wait=<duration> (capped at 60s): the request
// parks until the job reaches a terminal state or the wait expires.
// Adding &rev=N — the "rev" of the 202 reply or of the last status
// document — turns the poll into a watch that also returns on the next
// change after revision N (queued→running, each finished sweep point).
//
// # Observability
//
// GET /metrics serves the internal/obs registry in Prometheus text
// exposition format — the one counter surface: the jobs_*/store_*/fleet_*
// counters and gauges (a dispatcher's fleet_worker_healthy and
// fleet_worker_outstanding per worker), latency histograms (queue wait,
// execution, per-stage compile/execute/sample, journal append and fsync,
// dispatcher→worker round trips), Go runtime gauges (go_goroutines, heap,
// GC) and a build_info gauge carrying the VCS revision.
//
// Every job carries a trace ID: inbound X-Trace-Id is honored (else one
// is generated), echoed on the 202, recorded in the journal, forwarded
// dispatcher→worker, and attached to every structured log line. GET
// /v1/jobs/{id} includes the trace ID and a per-job span log (queued →
// started → transpile/compile/execute/sample → done).
//
// A submission carrying a top-level "profile": true (or POSTed with
// ?profile=true) runs with the simulator's kernel-granular profiler on:
// its status and result documents gain a "profile" table — one row per
// fused kernel with wall time, per-shard min/max and the imbalance
// ratio — whose total matches the execute span. Profiled sweeps report
// per-kind aggregates over the whole grid. Profiled submissions cache
// separately from unprofiled ones; counts are bit-identical either way.
//
// Logs are structured (log/slog); -log-format picks text (default) or
// json. -debug-addr starts a second listener exposing /debug/pprof/*,
// /debug/events and a /metrics copy — keep it on a loopback or
// otherwise private address:
//
//	qmlserve -addr :8080 -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	curl -s http://127.0.0.1:6060/debug/events   # flight recorder dump
//
// /debug/events is the always-on flight recorder (internal/obs): a
// fixed-size lock-free ring of recent structured events — job
// transitions, kernel-batch completions, fleet forwards and detaches,
// journal fsync stalls — dumped as JSON, newest last. The same tail is
// attached to panic reports, so a crash carries what the process was
// doing in its final moments.
//
// # Durability
//
// With -data-dir the service survives crashes: every job transition
// appends to an append-only JSONL journal and results persist as
// content-addressed files (internal/jobs/store). On startup the journal
// replays — terminal jobs answer GET /v1/jobs/{id} and /result exactly as
// before the restart, and jobs that were queued or running when the
// process died are requeued and re-run (execution is deterministic in
// bundle+shots+seed, so the re-run's counts are the ones the lost run
// would have produced). Every move's journal line is in the file before
// the move is readable, so kill -9 at any instant loses nothing a client
// saw. -fsync picks which lines are also fsynced: "always" (default, in
// both modes — a 202 or a canceling 200 returns only after its line's
// fsync, concurrent requests sharing one; the other lines follow within
// one fsync, with nobody waiting), "terminal" (not started/assigned lines)
// or "none". Without -data-dir the service is in-memory, as before.
//
// On SIGINT/SIGTERM the server drains: parked ?wait= polls answer at
// once with the current status (request contexts descend from the
// signal context), other in-flight HTTP requests get up to 10 s, the
// pool finishes running and queued jobs (new submissions fail fast with
// 503), and the journal is flushed and closed before exit.
//
// # Fleet dispatch
//
// With -dispatch the same binary becomes a fleet front-end instead of a
// worker: it runs no pool of its own and forwards every job to the
// listed qmlserve nodes over the same /v1 protocol (internal/fleet).
//
//	qmlserve -addr :8080 -dispatch 10.0.0.1:8081,10.0.0.2:8081 -data-dir /var/lib/qmlserve
//
// Routing is load-aware with cache-key affinity (identical bundles land
// on the worker that already caches their result), dead workers are
// ejected by health probes and their in-flight jobs re-forwarded, and
// with -data-dir every accepted job plus its worker assignment is
// journaled, exactly as a worker journals, so both worker deaths and
// dispatcher restarts preserve accepted work.
// -probe-interval tunes the liveness probe (GET /v1/engines) cadence.
// Job status has no cadence to tune: the dispatcher parks a revisioned
// long-poll (GET /v1/jobs/{id}?wait=D&rev=N) on the owning worker, which
// answers the moment the job changes.
//
// The dispatcher is served by the same handler as a worker, so every
// route above works on it unchanged; its status documents add "worker",
// "remote", "reforwards" and "ranges". A POST /v1/sweeps grid
// is scattered point-range-wise across the healthy workers as
// independent sub-sweeps (a ?shards= pin goes with each), a dead
// worker's unfinished ranges (and only those) re-forward to survivors,
// and GET /v1/sweeps/{id} merges the per-range documents back into one
// globally indexed result set — per-point identical to a single-node run
// of the same grid.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/jobs/store"
	"repro/internal/obs"
)

// config is the flag set both serving modes share.
type config struct {
	addr      string
	dataDir   string
	fsync     string
	debugAddr string
	log       *slog.Logger
	reg       *obs.Registry
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker goroutines (0 = NumCPU)")
	queue := flag.Int("queue", 64, "bounded queue depth (full queue → 429)")
	cache := flag.Int("cache", 1024, "result-cache entries (negative disables)")
	maxShards := flag.Int("max-shards", 0, "cores granted to a lone job: statevector shards for a simulation, concurrent points (lanes × shards) for a sweep (0 = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "journal + result directory for crash-safe restarts (empty = in-memory)")
	fsync := flag.String("fsync", "always", "journal fsync policy: always|terminal|none")
	dispatch := flag.String("dispatch", "", "comma-separated worker base URLs: serve as a fleet dispatcher instead of a worker")
	probeInterval := flag.Duration("probe-interval", time.Second, "dispatcher: worker health probe cadence")
	logFormat := flag.String("log-format", "text", "structured log format: text|json")
	debugAddr := flag.String("debug-addr", "", "debug listener address for /debug/pprof and /metrics (empty = off; keep it private)")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "qmlserve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	cfg := config{
		addr:      *addr,
		dataDir:   *dataDir,
		fsync:     *fsync,
		debugAddr: *debugAddr,
		log:       obs.NewLogger(*logFormat, os.Stderr),
		// One process-wide registry: subsystem instruments, Go runtime
		// gauges and the build_info gauge all land here, so /metrics on
		// the main and debug listeners serve one coherent exposition.
		reg: obs.NewRegistry(),
	}
	obs.RegisterRuntime(cfg.reg)
	obs.RegisterBuildInfo(cfg.reg)
	var err error
	if *dispatch != "" {
		// Jobs still running on workers when a dispatcher stops keep running;
		// the journal carries their assignments to its next life.
		err = serve(cfg, func(st *store.Store) (service, error) {
			return fleet.New(fleet.Options{
				Workers:       strings.Split(*dispatch, ","),
				Store:         st,
				ProbeInterval: *probeInterval,
				Logger:        cfg.log,
				Metrics:       cfg.reg,
			})
		}, "mode", "dispatcher", "fleet", *dispatch)
	} else {
		// A pool drains when it stops: running and queued jobs finish
		// (journaling their terminal states), coalesced waiters are released
		// with their primaries, late submissions fail fast with ErrClosed.
		err = serve(cfg, func(st *store.Store) (service, error) {
			return jobs.NewPool(jobs.Options{
				Workers: *workers, QueueDepth: *queue, CacheSize: *cache,
				MaxShards: *maxShards, Store: st,
				Logger: cfg.log, Metrics: cfg.reg,
			}), nil
		}, "mode", "worker", "engines", fmt.Sprint(backend.Engines()))
	}
	if err != nil {
		cfg.log.Error("qmlserve exiting", "err", err)
		os.Exit(1)
	}
}

// startDebug brings up the -debug-addr listener: net/http/pprof's
// handlers plus a /metrics copy, on its own mux so none of it leaks onto
// the service address. Returns a stop func (nil addr = no-op).
func startDebug(cfg config) (func(), error) {
	if cfg.debugAddr == "" {
		return func() {}, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// The flight recorder: the most recent structured events (job
	// transitions, kernel batches, fleet forwards, fsync stalls) as JSON,
	// for "what was happening just now" forensics without log scraping.
	mux.Handle("GET /debug/events", obs.DefaultFlight().Handler())
	mux.Handle("GET /metrics", obs.Handler(cfg.reg, obs.Default()))
	ln, err := net.Listen("tcp", cfg.debugAddr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	cfg.log.Info("qmlserve debug listening", "addr", ln.Addr().String())
	return func() { srv.Close() }, nil
}

// newServer builds the service listener's http.Server with every request
// context descending from the signal context. Shutdown alone does not
// cancel request contexts, so without this one client parked on
// ?wait=30s would hold the drain for its whole 10 s budget; with it,
// parked waits return the current status the moment the signal lands.
func newServer(sigCtx context.Context, h http.Handler) *http.Server {
	return &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return sigCtx },
	}
}

// service is what serve runs: either implementation of the /v1 protocol,
// and a way to stop it.
type service interface {
	jobs.Service
	Close()
}

// serve runs one server life: open the journal (with -data-dir), build the
// service over it, bring up the debug and service listeners, block until
// SIGINT/SIGTERM or a listener failure, and tear down in reverse — HTTP
// drain, debug listener, service, journal flush + close. The two modes
// differ only in build; about describes the mode on the "listening" line.
func serve(cfg config, build func(*store.Store) (service, error), about ...any) error {
	var st *store.Store
	if cfg.dataDir != "" {
		policy, err := store.ParseSyncPolicy(cfg.fsync)
		if err != nil {
			return err
		}
		if st, err = store.Open(cfg.dataDir, store.Options{Sync: policy, Metrics: cfg.reg}); err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); cerr != nil {
				cfg.log.Warn("closing journal", "err", cerr)
			}
		}()
	}
	svc, err := build(st)
	if err != nil {
		return err
	}
	defer svc.Close()
	if st != nil {
		cfg.log.Info("recovered journal", "dir", cfg.dataDir, "records", len(st.Records()), "disk_results", len(st.RecentResultKeys(0)))
	}

	stopDebug, err := startDebug(cfg)
	if err != nil {
		return err
	}
	defer stopDebug()
	// An explicit listener (not ListenAndServe) so ":0" works and the
	// bound address is known — the restart test leans on both.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := newServer(ctx, jobs.NewHandler(svc))

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	cfg.log.Info("qmlserve listening", append([]any{"addr", ln.Addr().String()}, about...)...)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	cfg.log.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// DeadlineExceeded here means in-flight requests were cut off.
		cfg.log.Warn("shutdown", "err", err)
	}
	return nil
}
