package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/bundle"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/runtime"
)

// checkReply applies the checks every reply gets: the point count, the
// count total of every point, the cache-hit contract of hot-set
// duplicates, and the energies of anneal entries. hot is the first reply
// each hot-set slot got (nil while the hot set is being preloaded).
func checkReply(op Op, r Reply, hot []Reply) error {
	wantPoints := max(1, op.Points)
	if len(r.Points) != wantPoints {
		return fmt.Errorf("%d result points, want %d", len(r.Points), wantPoints)
	}
	for p, entries := range r.Points {
		total := 0
		for _, e := range entries {
			total += e.Count
		}
		if total != op.Shots {
			return fmt.Errorf("point %d: counts sum to %d, want %d", p, total, op.Shots)
		}
	}
	if op.Hot >= 0 && hot != nil {
		if !r.CacheHit {
			return fmt.Errorf("duplicate of hot-set bundle %d was not a cache hit", op.Hot)
		}
		if err := sameEntries(r.Points[0], hot[op.Hot].Points[0]); err != nil {
			return fmt.Errorf("duplicate of hot-set bundle %d differs from its first result: %w", op.Hot, err)
		}
	}
	if op.Edges != nil {
		for _, e := range r.Points[0] {
			if e.Energy == nil {
				return fmt.Errorf("anneal entry %s carries no energy", e.Bitstring)
			}
			if want := maxCutEnergy(op, e.Bitstring); math.Abs(*e.Energy-want) > 1e-9 {
				return fmt.Errorf("anneal entry %s reports energy %v, recomputed %v", e.Bitstring, *e.Energy, want)
			}
		}
	}
	return nil
}

// maxCutEnergy recomputes E(s) = Σ w·s_u·s_v over the op's graph from a
// bitstring (carrier 0 first). With no linear term the energy does not
// depend on which bit value means spin up.
func maxCutEnergy(op Op, bits string) float64 {
	e := 0.0
	for _, edge := range op.Edges {
		if bits[edge.U] == bits[edge.V] {
			e += edge.Weight
		} else {
			e -= edge.Weight
		}
	}
	return e
}

func sameEntries(got, want []Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Bitstring != w.Bitstring || g.Index != w.Index || g.Count != w.Count ||
			(g.Energy == nil) != (w.Energy == nil) || (g.Energy != nil && *g.Energy != *w.Energy) {
			return fmt.Errorf("entry %d is %s×%d, want %s×%d", i, g.Bitstring, g.Count, w.Bitstring, w.Count)
		}
	}
	return nil
}

// localEntries converts an in-process result to wire entries.
func localEntries(res *result.Result) []Entry {
	out := make([]Entry, len(res.Entries))
	for i, e := range res.Entries {
		out[i] = Entry{Bitstring: e.Bitstring, Index: e.Index, Count: e.Count}
		if e.HasEnergy {
			energy := e.Energy
			out[i].Energy = &energy
		}
	}
	return out
}

// localReply executes an op in-process through runtime.Submit on its
// concrete bundle: the reference a served reply is compared with. For a
// sweep it binds and runs the first maxPoints points (all when ≤ 0).
func localReply(op Op, maxPoints int) (Reply, error) {
	b, err := bundle.FromJSON(op.Body, qop.ValidateOptions{})
	if err != nil {
		return Reply{}, err
	}
	concrete := []*bundle.Bundle{b}
	if op.Points > 0 {
		concrete = concrete[:0]
		for p, pt := range b.Context.Sweep.Points {
			if maxPoints > 0 && p == maxPoints {
				break
			}
			c, err := b.BindPoint(pt)
			if err != nil {
				return Reply{}, err
			}
			concrete = append(concrete, c)
		}
	}
	var r Reply
	for _, c := range concrete {
		res, err := runtime.Submit(c, runtime.Options{})
		if err != nil {
			return Reply{}, err
		}
		r.Points = append(r.Points, localEntries(res))
	}
	return r, nil
}

// reexecute is the bit-identity check: the op (for a sweep, its first
// maxPoints points, all when ≤ 0) runs in-process and must match the
// server's reply entry for entry.
func reexecute(op Op, r Reply, maxPoints int) error {
	want, err := localReply(op, maxPoints)
	if err != nil {
		return err
	}
	for p := range want.Points {
		if err := sameEntries(r.Points[p], want.Points[p]); err != nil {
			return fmt.Errorf("point %d: %w", p, err)
		}
	}
	return nil
}

// digest hashes replies in order: two runs that served the same op list
// with the same results agree on it, whatever served them.
func digest(replies []Reply) string {
	h := sha256.New()
	for _, r := range replies {
		for _, entries := range r.Points {
			for _, e := range entries {
				fmt.Fprintf(h, "%s %d %d", e.Bitstring, e.Index, e.Count)
				if e.Energy != nil {
					fmt.Fprintf(h, " %v", *e.Energy)
				}
				h.Write([]byte{'\n'})
			}
			h.Write([]byte{';'})
		}
		h.Write([]byte{'|'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
