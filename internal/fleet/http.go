package fleet

import (
	"net/http"

	"repro/internal/jobs"
)

// NewHandler exposes a Dispatcher over the /v1 surface: it is
// jobs.NewHandler — the routes, documents, long-poll semantics and status
// codes are stated there, once — over a Service that forwards instead of
// executing. What a client can see of the difference: status documents
// additionally carry "worker", "remote", "reforwards" and (sweeps)
// "ranges", and GET /metrics carries fleet_* families instead of jobs_*
// ones. Submissions are accepted as long as
// the dispatcher is up — if no worker is reachable the job queues
// (durably, when journaled) until the fleet returns.
func NewHandler(d *Dispatcher) http.Handler { return jobs.NewHandler(d) }
