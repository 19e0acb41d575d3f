// Package lint is the repo-invariant analyzer suite behind cmd/simvet.
// The system's load-bearing guarantees — bit-identical counts for a
// fixed bundle+shots+seed, no fsync under a serving-layer mutex, no
// complex128 arithmetic in SoA hot sweeps, a truthful Prometheus
// /metrics surface, and a durable journal whose errors are never
// silently lost — used to live in doc comments and reviewer memory.
// This package mechanizes them as type-aware static analysis over
// go/ast + go/types (stdlib only, like internal/obs): each package is
// parsed with go/parser and type-checked with the source go/importer,
// then every analyzer walks the typed syntax.
//
// The suite (see All):
//
//   - determinism — in simulation-core packages (internal/sim,
//     internal/gates, internal/algolib, and any package importing
//     internal/rng), no math/rand global-state calls, no rand.Seed,
//     and no time.Now()-derived seeds. The result cache, crash
//     requeue, and fleet re-forwarding all assume a fixed
//     bundle+shots+seed reproduces counts bit-identically.
//
//   - lockblock — in internal/jobs, internal/jobs/store and
//     internal/fleet, no blocking call (journal/store mutators and
//     result-file reads, fsync, net/http round trips, time.Sleep,
//     WaitGroup waits, channel operations) while a sync.Mutex/RWMutex
//     is held. Intra-function:
//     lock state is tracked linearly, branches analyzed on copies,
//     function literals as fresh scopes; sync.Cond.Wait is exempt.
//
//   - soacomplex — in internal/sim (minus the compile-time allowlist
//     and _test.go files), no complex arithmetic and no []complex
//     allocations; the complex/real/imag conversion builtins stay
//     legal at the Amplitudes boundary.
//
//   - obsconv — instrument registrations on an internal/obs Registry
//     use lower-snake_case names, counters (and only counters) end in
//     _total, the histogram-owned _count/_sum/_bucket suffixes are
//     never claimed, and a name registers once per construction and
//     with one kind per package.
//
//   - journalerr — errors from journal/store mutators (Append, Write,
//     Commit, Sync, Compact, PutResult) are never dropped, not even
//     with `_ =`.
//
// # Suppressing a finding
//
// A justified exception is annotated in place:
//
//	//lint:ignore <analyzer> <reason>
//	_ = s.Append(ev)
//
// or trailing on the line itself. The directive suppresses the named
// analyzer ("*" for all) on its own line and the line below. The
// reason is mandatory — a directive without one is itself reported —
// because an unexplained suppression recreates exactly the
// reviewer-memory problem the suite removes.
//
// Analyzer scopes match package paths by suffix, so the golden-test
// fixture trees under testdata/src/<case>/ exercise the same rules as
// the real packages they mirror. The analysis is intra-procedural by
// design.
package lint
