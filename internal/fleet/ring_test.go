package fleet

import (
	"fmt"
	"testing"
)

// TestRingMinimalRehash pins the property the affinity router depends
// on: ejecting one worker moves ONLY the keys that worker owned
// (everything else keeps its node), and readmitting it restores the
// original mapping exactly — so a worker bouncing in and out of the
// fleet does not scramble cache locality for the others.
func TestRingMinimalRehash(t *testing.T) {
	workers := []string{"http://w1:8080", "http://w2:8080", "http://w3:8080"}
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("sha256:%064d", i)
	}
	baseline := map[string]string{}
	owned := map[string]int{}
	for _, k := range keys {
		w := affinityWorker(k, workers, nil)
		if w == "" {
			t.Fatalf("key %s mapped nowhere", k)
		}
		baseline[k] = w
		owned[w]++
	}
	// Every worker must own a meaningful share — degenerate affinity would
	// defeat load spreading.
	for _, w := range workers {
		if owned[w] < len(keys)/10 {
			t.Fatalf("worker %s owns only %d/%d keys", w, owned[w], len(keys))
		}
	}

	// Eject w2: its keys redistribute, all other keys stay put.
	alive := func(name string) bool { return name != workers[1] }
	moved := 0
	for _, k := range keys {
		w := affinityWorker(k, workers, alive)
		if baseline[k] != workers[1] {
			if w != baseline[k] {
				t.Fatalf("key %s moved %s→%s though its owner stayed healthy", k, baseline[k], w)
			}
			continue
		}
		moved++
		if w == workers[1] || w == "" {
			t.Fatalf("key %s still on the ejected worker (%q)", k, w)
		}
	}
	if moved != owned[workers[1]] {
		t.Fatalf("moved %d keys, want exactly the ejected worker's %d", moved, owned[workers[1]])
	}

	// Readmit: the original mapping returns bit-for-bit.
	for _, k := range keys {
		if w := affinityWorker(k, workers, nil); w != baseline[k] {
			t.Fatalf("key %s: %s after readmit, want %s", k, w, baseline[k])
		}
	}
}

// TestAffinityBalance bounds how evenly affinity spreads 10 000 cache
// keys over fleets of 2 to 5 workers named as a dispatcher names them
// (URLs that differ only in the port): every worker owns within 10 % of
// an even share. For 5 workers down to 2 that is 200–500 keys, 5–10
// binomial standard deviations (40–50 keys) out.
func TestAffinityBalance(t *testing.T) {
	const nKeys = 10000
	for n := 2; n <= 5; n++ {
		workers := make([]string, n)
		for i := range workers {
			workers[i] = fmt.Sprintf("http://127.0.0.1:%d", 18091+i)
		}
		owned := map[string]int{}
		for i := 0; i < nKeys; i++ {
			owned[affinityWorker(fmt.Sprintf("sha256:%064x", i*7919), workers, nil)]++
		}
		even := float64(nKeys) / float64(n)
		for _, w := range workers {
			if got := float64(owned[w]); got < 0.9*even || got > 1.1*even {
				t.Errorf("%d workers: %s owns %d of %d keys, want %.0f ± 10 %%", n, w, owned[w], nKeys, even)
			}
		}
	}
}
