package jobs

import (
	"testing"

	"repro/internal/bundle"
	"repro/internal/qop"
	rt "repro/internal/runtime"
)

// FuzzBundleFromJSON feeds arbitrary bytes to the POST body's parser,
// bundle.FromJSON, the first thing a worker does with untrusted input. It
// must fail, or return a bundle that passes every embedded JSON Schema:
// the typed rules are the only ones the execution path runs, so they must
// hold every schema rule. On that bundle everything a submission then does
// before execution (the cache key, the fingerprint, engine selection, the
// sweep shape check and binding every point) returns without a panic, and
// its Marshal parses back to the same cache key. The committed corpus
// holds the gate and anneal job.json of cmd/maxcut -emit, a sweep
// template, a bundle setting every schema-bounded field and a truncated
// body.
func FuzzBundleFromJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := bundle.FromJSON(body, qop.ValidateOptions{})
		if err != nil {
			return
		}
		if err := b.ValidateAgainstSchemas(); err != nil {
			t.Fatalf("FromJSON accepted a bundle its schemas refuse: %v\n%s", err, body)
		}
		_, _ = b.Fingerprint()
		_, _ = rt.SelectEngine(b)
		if _, err := SweepPoints(b); err == nil {
			for _, pt := range b.Context.Sweep.Points {
				_, _ = b.BindPoint(pt)
			}
		}
		key, err := CacheKey(b)
		if err != nil {
			return
		}
		raw, err := b.Marshal()
		if err != nil {
			t.Fatalf("a parsed bundle does not marshal: %v", err)
		}
		back, err := bundle.FromJSON(raw, qop.ValidateOptions{})
		if err != nil {
			t.Fatalf("a parsed bundle's own JSON does not parse: %v\n%s", err, raw)
		}
		if again, err := CacheKey(back); err != nil || again != key {
			t.Fatalf("cache key moved across Marshal → FromJSON: %s → %s (%v)", key, again, err)
		}
	})
}
