// Ranges and sweep scatter. What the dispatcher forwards is a range: a
// plain job is one range carrying the whole bundle, and a parameter-sweep
// bundle — accepted as ONE job — has its point grid split into contiguous
// ranges, one per healthy worker, each forwarded as an independent
// sub-sweep bundle (the template with Context.Sweep.Points sliced). The
// lifecycle is the same for both and written once: jobs.Table.Transition
// for the job, and run/forward/detach/observe in dispatcher.go over
// (job, range), each range with its own watcher; when a worker dies
// mid-sweep only its unfinished ranges re-forward, finished ranges keep
// their results where they are. What this file adds for sweeps is the
// scatter, the merged kernel profile, and GET /v1/sweeps/{id}, which
// merges the per-range result sets back into one globally indexed set.
// Because BindPoint strips the sweep block before fingerprinting, a point
// bound from a sub-range template is bit-identical — counts, cache key,
// intent fingerprint — to the same point bound from the full template,
// which is what makes the scattered result set indistinguishable from a
// single-node sweep.

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/bundle"
	"repro/internal/jobs"
	"repro/internal/qop"
)

// sweepRange is one forwarded unit of a job: a contiguous slice [from,to)
// of a sweep's point grid, sent to a worker as an independent sub-sweep,
// or (from = to = 0) the whole bundle of a plain job. Mutable fields are
// guarded by Dispatcher.mu.
type sweepRange struct {
	from, to   int
	raw        json.RawMessage // what is POSTed for this range, dropped when the job is terminal
	prefer     string          // scatter-time worker choice, for initial spread
	worker     string          // owning node ("" while unassigned)
	remote     string          // job ID on that node
	remoteRev  uint64          // remote job's revision as last reported by that node
	avoid      string          // node to skip on the next forward (it just lost the range)
	forwards   int
	pointsDone int // remote progress, range-local
	done       bool
	failed     bool
	errMsg     string
	// profile is the worker's per-kind kernel profile for this range's
	// sub-sweep, captured opaquely (profiled sweeps only).
	profile json.RawMessage
}

// label names the range in a note, followed by sep; a plain job's whole
// bundle has no name.
func (r *sweepRange) label(sep string) string {
	if r.to == 0 {
		return ""
	}
	return fmt.Sprintf("range [%d,%d)%s", r.from, r.to, sep)
}

// stateLocked names the range's lifecycle phase for status documents.
// Callers hold Dispatcher.mu.
func (r *sweepRange) stateLocked() string {
	switch {
	case r.failed:
		return "failed"
	case r.done:
		return "done"
	case r.worker != "":
		return "running"
	default:
		return "queued"
	}
}

// pointsDoneLocked is the range-local completed-point count. Callers
// hold Dispatcher.mu.
func (r *sweepRange) pointsDoneLocked() int {
	if r.done {
		return r.to - r.from
	}
	return r.pointsDone
}

// mergedProfile folds the per-range worker profile documents into one
// fleet-wide per-kind table, byte-compatible with a single worker's
// aggregated sweep profile. Nil until at least one range reported a
// profile. Callers hold Dispatcher.mu.
func mergedProfile(ranges []*sweepRange) json.RawMessage {
	var out jobs.SweepProfileDoc
	idx := map[string]int{}
	seen := false
	for _, r := range ranges {
		if len(r.profile) == 0 {
			continue
		}
		var doc jobs.SweepProfileDoc
		if err := json.Unmarshal(r.profile, &doc); err != nil {
			continue
		}
		seen = true
		out.Points += doc.Points
		out.PointsProfiled += doc.PointsProfiled
		out.TotalNs += doc.TotalNs
		for _, k := range doc.Kinds {
			i, ok := idx[k.Kind]
			if !ok {
				i = len(out.Kinds)
				idx[k.Kind] = i
				out.Kinds = append(out.Kinds, k)
				continue
			}
			out.Kinds[i].Kernels += k.Kernels
			out.Kinds[i].Ns += k.Ns
		}
	}
	if !seen {
		return nil
	}
	sort.Slice(out.Kinds, func(i, j int) bool { return out.Kinds[i].Ns > out.Kinds[j].Ns })
	raw, err := json.Marshal(out)
	if err != nil {
		return nil
	}
	return raw
}

// SubmitSweep accepts a parameter-sweep bundle as one dispatched job.
// o.Shards and o.Profile are forwarded with every range's sub-sweep; the
// workers' per-kind kernel tables merge back into this job's status
// document.
func (d *Dispatcher) SubmitSweep(b *bundle.Bundle, o jobs.SubmitOptions) (jobs.Status, error) {
	n, err := jobs.SweepPoints(b)
	if err != nil {
		return jobs.Status{}, err
	}
	return d.accept(b, o, n)
}

// scatter slices a sweep's grid into ranges over however many workers are
// healthy right now; with none reachable it waits — the journal already
// holds the job. It returns nil ranges when ctx ended first (the job
// turned terminal or the dispatcher is closing: the journal keeps the job
// queued and the next process life scatters it), and an error when the
// template cannot be sliced.
func (d *Dispatcher) scatter(ctx context.Context, j *fwdJob) ([]*sweepRange, error) {
	tmpl, err := bundle.FromJSON(j.raw, qop.ValidateOptions{})
	if err != nil {
		return nil, fmt.Errorf("fleet: sweep template: %v", err)
	}
	points := tmpl.Context.Sweep.Points
	names := d.healthyNames()
	for len(names) == 0 {
		if sleep(ctx, d.opts.ProbeInterval); ctx.Err() != nil {
			return nil, nil
		}
		names = d.healthyNames()
	}
	k := min(len(names), len(points))
	ranges := make([]*sweepRange, 0, k)
	per, extra := len(points)/k, len(points)%k
	from := 0
	for i := 0; i < k; i++ {
		to := from + per
		if i < extra {
			to++
		}
		sub, err := subSweepRaw(tmpl, from, to)
		if err != nil {
			return nil, fmt.Errorf("fleet: slice sweep range [%d,%d): %v", from, to, err)
		}
		ranges = append(ranges, &sweepRange{from: from, to: to, raw: sub, prefer: names[i]})
		from = to
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if j.State.Terminal() { // canceled while slicing
		return nil, nil
	}
	j.ranges = ranges
	j.Span("scattered", 0, fmt.Sprintf("%d points over %d ranges", len(points), k))
	j.Touch()
	d.log.Info("sweep scattered", "job", j.ID, "trace", j.Trace, "points", len(points), "ranges", k)
	return ranges, nil
}

// healthyNames snapshots the healthy workers in configured order.
func (d *Dispatcher) healthyNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, name := range d.names {
		if w := d.workers[name]; w != nil && w.healthy {
			out = append(out, name)
		}
	}
	return out
}

// subSweepRaw renders the template with its point grid sliced to
// [from,to) — the independent sub-sweep bundle one worker runs. Only the
// context block is copied; registers and operators are shared.
func subSweepRaw(tmpl *bundle.Bundle, from, to int) (json.RawMessage, error) {
	cp := *tmpl
	ctx := *tmpl.Context
	sw := *ctx.Sweep
	sw.Points = sw.Points[from:to]
	ctx.Sweep = &sw
	cp.Context = &ctx
	return json.Marshal(&cp)
}

// WriteSweepResult merges the per-range result sets from their owning
// workers into one globally indexed SweepResultDoc. Only done sweeps
// answer; one recovered from a journal written before done events carried
// the range table no longer knows where its results are and says so.
func (d *Dispatcher) WriteSweepResult(ctx context.Context, out io.Writer, id string) error {
	d.mu.Lock()
	j, err := d.Get(id)
	if err == nil && j.Points == 0 {
		err = fmt.Errorf("%w: %q", jobs.ErrNotSweep, id)
	}
	if err != nil {
		d.mu.Unlock()
		return err
	}
	st := d.Snapshot(j)
	d.mu.Unlock()

	if err := jobs.NotDoneError(id, st.State, fmt.Errorf("%w: %s", jobs.ErrJobFailed, st.Error)); err != nil {
		return err
	}
	if len(st.Ranges) == 0 {
		return badGateway("fleet: sweep %q finished before this dispatcher started; its range assignments were not retained — resubmit the sweep", id)
	}
	doc := jobs.NewSweepResultDoc(st)
	doc.Results = make([]jobs.SweepPointDoc, st.Points)
	for _, rg := range st.Ranges {
		w := d.workerByName(rg.Worker)
		if w == nil {
			return badGateway("fleet: sweep %q range [%d,%d) belongs to unknown worker %q", id, rg.From, rg.To, rg.Worker)
		}
		var part jobs.SweepResultDoc
		cctx, cancel := context.WithTimeout(ctx, d.opts.RequestTimeout)
		err := w.c.get(cctx, fmt.Sprintf("sweep result for range [%d,%d)", rg.From, rg.To), "/v1/sweeps/"+rg.Remote, &part)
		cancel()
		if err != nil {
			return err
		}
		if len(part.Results) != rg.To-rg.From {
			return badGateway("fleet: %s answered %d results for range [%d,%d)", rg.Worker, len(part.Results), rg.From, rg.To)
		}
		for _, pt := range part.Results {
			gi := rg.From + pt.Index
			if gi < rg.From || gi >= rg.To {
				return badGateway("fleet: %s answered out-of-range point %d for range [%d,%d)", rg.Worker, pt.Index, rg.From, rg.To)
			}
			pt.Index = gi
			doc.Results[gi] = pt
		}
	}
	jobs.WriteDoc(out, doc)
	return nil
}
