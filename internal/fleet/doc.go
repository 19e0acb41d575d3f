// Package fleet is the serving layer's horizontal scale-out subsystem: a
// dispatcher that fronts N worker qmlserve nodes over the same /v1 HTTP
// protocol the workers themselves speak. Workers need zero changes to
// join a fleet — the dispatcher is just another /v1 client, decoding
// their replies into the documents internal/jobs exports — and clients
// need zero changes to use one: Dispatcher implements jobs.Service, so
// the handler that serves a worker (jobs.NewHandler, where the routes,
// documents, status codes and long-poll semantics are stated) serves the
// fleet as well. What the dispatcher adds to the protocol is small: the
// "worker", "remote", "reforwards" and (sweeps) "ranges" members of a
// status document. Its counters are on GET /metrics like a worker's: the
// fleet_* families, with fleet_worker_healthy and fleet_worker_outstanding
// carrying one series per configured worker.
//
// # Lifecycle
//
// The job lifecycle — states, legal moves, the span and journal event of
// each — is jobs.Table.Transition's, shared with the worker pools: the
// dispatcher keeps a jobs.Record per job in a jobs.Table and moves it only
// through Transition, which also writes each move's journal line. What
// this tier adds is routing and ranges. What is forwarded is a range: a
// plain job is one range carrying the whole bundle, a sweep is sliced into
// one range per healthy worker (sweep.go), and one run, forward, detach and
// observe over (job, range) drive both: a job is running once a range of
// it runs, queued again when no range of it is on a worker any more, failed
// with its first failed range and done when every range is. The one
// journal line that is not a move, an assignment, goes through the same
// Table (Journal), and the two acknowledgments — an accepted submission, a
// cancel — wait for their line's fsync after unlocking (Commit): no fsync
// happens under the mutex the watchers contend on, and the journal order
// is the move order.
//
// # Routing
//
// Submissions are routed load-aware with cache-key affinity. Rendezvous
// hashing maps each submission's content address — the same canonical
// bundle+shots+seed key the result caches use — to a preferred worker:
// of the healthy workers, the one whose hash with the key is highest. So
// identical bundles land on the node that already holds the result in its
// cache, and duplicates of a running job coalesce in that worker's pool.
// The affinity choice yields to load only when that worker is carrying
// four more outstanding dispatched jobs than the least-loaded node, in
// which case the least-loaded healthy worker takes the job
// (fleet_affinity_spills_total).
// While a job with some key is in flight through the dispatcher, later
// duplicates are pinned to its worker even if affinity has shifted, so
// dispatcher-level coalescing survives ejects and readmissions.
//
// # Watching
//
// Once a job is forwarded, its runner follows the remote job with a
// revisioned long-poll instead of polling on a cadence: every status
// document (and the 202 submit reply) carries "rev", and
// GET /v1/jobs/{id}?wait=D&rev=N parks on the worker until the job's
// revision exceeds N, the job is terminal, or D (half of RequestTimeout)
// elapses. Every remote transition — queued→running, each finished sweep
// point, terminal — therefore reaches the dispatcher the moment it
// happens: a short job costs two status requests and no sleep, a long job
// costs one idle re-issue per RequestTimeout/2 rather than ten polls a
// second. The watch's context ends when the dispatcher stops or the job
// turns terminal locally (a client-side DELETE), so neither waits out a
// parked call. A watch that fails (the worker died: its parked connection
// resets at once) is retried after a back-off that starts at 10 ms,
// doubles, and is capped at ProbeInterval; ReforwardAfter consecutive
// failures — or one answer that the worker no longer knows the job —
// detach the job and re-forward it elsewhere. A client can watch the
// dispatcher's record the same way; its revision (jobs.Revision) moves on
// assignment, remote state, sweep progress and every folded worker reply.
//
// # Health
//
// A prober asks every worker for GET /v1/engines on ProbeInterval, a
// liveness check (a worker's counters are on its own /metrics). EjectAfter
// consecutive failures mark the worker unhealthy — it leaves routing (its
// keys, and only its keys, move to their next-highest surviving worker)
// but keeps being probed, and a single
// success readmits it. Every dispatcher→worker HTTP call carries both a
// context deadline and a hard client timeout (RequestTimeout), so a hung
// worker can stall at most one request, never wedge a dispatcher
// goroutine forever.
//
// # Durability
//
// With a Store attached, the dispatcher journals every accepted job
// through internal/jobs/store exactly as a worker pool does — submitted
// (with the canonical bundle), assigned (worker + remote job ID,
// re-appended on every re-forward), started, done/failed/canceled — each
// line in the file before the move is readable, concurrent submissions
// sharing fsync barriers. A job whose worker dies mid-run is re-forwarded
// to another node and re-runs there; execution is
// deterministic in the cache key, so the re-run's counts are identical
// to what the lost run would have produced (at-least-once forwarding —
// a network-partitioned worker may also finish the original run, which
// is harmless for the same reason). After a dispatcher crash, New
// replays the journal: terminal jobs answer status again (results are
// proxied from the workers that hold them — a done sweep's event carries
// its final range table for that), and non-terminal jobs are re-attached
// — the dispatcher parks a fresh watch on the assigned worker for their
// in-flight state, and re-forwards any the fleet no longer knows; a
// non-terminal sweep scatters again.
//
// cmd/qmlserve exposes all of this as `-dispatch worker1,worker2,...`,
// so one binary serves both roles.
package fleet
