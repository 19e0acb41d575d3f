package jobs

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qop"
	"repro/internal/result"
)

// CacheKey returns the content address of a submission: a SHA-256 over the
// canonical JSON of the bundle's QDTs, operators and context plus the
// resolved shot count and seed. Provenance is excluded — who packaged the
// bundle does not change what executing it produces. Two bundles with the
// same key are guaranteed to yield byte-identical results because every
// stochastic stage is seeded.
func CacheKey(b *bundle.Bundle) (string, error) {
	shots, seed := resolveShotsSeed(b)
	payload := struct {
		QDTs      []*qdt.DataType  `json:"qdts"`
		Operators qop.Sequence     `json:"operators"`
		Context   *ctxdesc.Context `json:"context,omitempty"`
		Shots     int              `json:"shots"`
		Seed      uint64           `json:"seed"`
	}{b.QDTs, b.Operators, b.Context, shots, seed}
	raw, err := json.Marshal(payload) // canonical: struct order fixed, map keys sorted
	if err != nil {
		return "", fmt.Errorf("jobs: cache key: %w", err)
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// resolveShotsSeed extracts the shot count and seed the key hashes:
// anneal.num_reads when an anneal block is present, else exec.samples,
// defaulting to backend.DefaultShots, and exec.seed. This is a key input,
// not the engine's rule: an anneal job with no anneal block runs
// backend.DefaultShots reads whatever exec.samples says. The key stays a
// function of what runs because it hashes the whole context too.
func resolveShotsSeed(b *bundle.Bundle) (int, uint64) {
	shots := backend.DefaultShots
	seed := uint64(0)
	if b.Context != nil {
		if e := b.Context.Exec; e != nil {
			if e.Samples > 0 {
				shots = e.Samples
			}
			seed = e.Seed
		}
		if a := b.Context.Anneal; a != nil && a.NumReads > 0 {
			shots = a.NumReads
		}
	}
	return shots, seed
}

// resultCache is an LRU of completed results keyed by CacheKey. A result
// is read-only once an engine returns it, so the cache stores and serves
// the very result every job of its key shares.
type resultCache struct {
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *result.Result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, order: list.New(), byKey: map[string]*list.Element{}}
}

// get returns the cached result. Callers hold Pool.mu.
func (c *resultCache) get(key string) (*result.Result, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores res. Callers hold Pool.mu.
func (c *resultCache) put(key string, res *result.Result) {
	if res == nil {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int { return c.order.Len() }
