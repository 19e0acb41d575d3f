// Kernel-granular execution profiles at the job layer. A profiled job
// (SubmitOptions.Profile, or "profile": true in the POST /v1/jobs body)
// runs with the simulator's per-kernel profiler on; the backend stores
// the resulting sim.Profile under the result's Meta["profile"], and the
// pool lifts it into the job's status document next to the span log so
// operators can see where the execute stage's time went — per kernel,
// with per-shard min/max and the imbalance ratio — without fetching the
// full result.
//
// Profiled submissions get a distinct cache key (profiledKey), so whether
// a status document carries a kernel table is deterministic in the
// submission: a profiled job never silently reuses an unprofiled run's
// cached result, and vice versa. Everything else — counts, fingerprints,
// shard grants — is bit-identical either way.

package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"

	"repro/internal/result"
)

// profiledKey derives the content address of a profiled submission from
// its unprofiled twin's: distinct, and a well-formed address like any
// other, because it also names the result's file in the store, which
// accepts nothing but "sha256:" and a hex digest.
func profiledKey(key string, profile bool) string {
	if !profile {
		return key
	}
	sum := sha256.Sum256([]byte(key + "+profile"))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// profileRaw extracts the result's Meta["profile"] as canonical JSON, or
// nil when the result carries none. The value is a typed *sim.Profile on
// the fresh-execution path and a generic map on results reloaded from
// disk; marshaling normalizes both into the same document.
func profileRaw(res *result.Result) json.RawMessage {
	if res == nil || res.Meta == nil {
		return nil
	}
	v, ok := res.Meta["profile"]
	if !ok || v == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return raw
}

// profileView mirrors sim.Profile's JSON shape for decoding per-point
// profiles out of sweep results without importing the simulator.
type profileView struct {
	Shards  int   `json:"shards"`
	TotalNs int64 `json:"total_ns"`
	Kernels []struct {
		Kind string `json:"kind"`
		Ns   int64  `json:"ns"`
	} `json:"kernels"`
}

// SweepKindDoc is one kernel-kind row of an aggregated sweep profile.
type SweepKindDoc struct {
	Kind    string `json:"kind"`
	Kernels int    `json:"kernels"`
	Ns      int64  `json:"ns"`
}

// SweepProfileDoc is the aggregated profile of a profiled sweep job, the
// "profile" of its status and result documents: per-point kernel tables
// folded into per-kind totals (points share one compiled plan, so
// per-kernel rows across points would only repeat the same structure N
// times). A dispatcher merges its ranges' documents into one more of these
// (MergeSweepProfiles).
type SweepProfileDoc struct {
	Points         int            `json:"points"`
	PointsProfiled int            `json:"points_profiled"`
	TotalNs        int64          `json:"total_ns"`
	Kinds          []SweepKindDoc `json:"kinds"`
}

// aggregateSweepProfiles folds the per-point Meta["profile"] tables of a
// completed sweep into one per-kind summary document: each profiled point
// is a document of one point with one row per kernel, merged with
// MergeSweepProfiles. Points served from the cache of an unprofiled run
// carry no profile and are counted out via PointsProfiled; nil when no
// point carried a profile.
func aggregateSweepProfiles(results []*result.Result) json.RawMessage {
	docs := []SweepProfileDoc{{Points: len(results)}}
	for _, res := range results {
		raw := profileRaw(res)
		if raw == nil {
			continue
		}
		var pv profileView
		if err := json.Unmarshal(raw, &pv); err != nil {
			continue
		}
		doc := SweepProfileDoc{PointsProfiled: 1, TotalNs: pv.TotalNs, Kinds: make([]SweepKindDoc, len(pv.Kernels))}
		for i, k := range pv.Kernels {
			doc.Kinds[i] = SweepKindDoc{Kind: k.Kind, Kernels: 1, Ns: k.Ns}
		}
		docs = append(docs, doc)
	}
	return MergeSweepProfiles(docs)
}

// MergeSweepProfiles folds sweep profile documents into one: point counts
// and totals add, rows of one kind merge, and the kinds sort by ns,
// heaviest first. A worker folds its points this way, and a dispatcher
// the documents of its ranges. Nil when no document profiled a point.
func MergeSweepProfiles(docs []SweepProfileDoc) json.RawMessage {
	var out SweepProfileDoc
	idx := map[string]int{}
	for _, doc := range docs {
		out.Points += doc.Points
		out.PointsProfiled += doc.PointsProfiled
		out.TotalNs += doc.TotalNs
		for _, k := range doc.Kinds {
			i, ok := idx[k.Kind]
			if !ok {
				idx[k.Kind] = len(out.Kinds)
				out.Kinds = append(out.Kinds, k)
				continue
			}
			out.Kinds[i].Kernels += k.Kernels
			out.Kinds[i].Ns += k.Ns
		}
	}
	if out.PointsProfiled == 0 {
		return nil
	}
	sort.SliceStable(out.Kinds, func(i, j int) bool { return out.Kinds[i].Ns > out.Kinds[j].Ns })
	raw, err := json.Marshal(out)
	if err != nil {
		return nil
	}
	return raw
}
