package fleet

import "hash/fnv"

// affinityWorker returns the worker a cache key has affinity for: of the
// workers ok accepts (nil accepts all), the one with the highest mix64
// hash of (key, worker) — rendezvous, or highest-random-weight, hashing.
// Each worker's weight for a key does not depend on the others, so
// ejecting a worker moves only the keys it held, each to its
// next-highest worker, and readmitting it moves them back. Ties go to the
// lower name. Empty string when ok accepts no worker.
func affinityWorker(key string, workers []string, ok func(string) bool) string {
	kh := hash64(key)
	best, bestH := "", uint64(0)
	for _, w := range workers {
		if ok != nil && !ok(w) {
			continue
		}
		if h := mix64(kh ^ hash64(w)); best == "" || h > bestH || (h == bestH && w < best) {
			best, bestH = w, h
		}
	}
	return best
}

// mix64 is the splitmix64 finalizer. FNV-1a alone diffuses trailing-byte
// differences weakly — worker names that differ only in a port digit
// would hash close together — so every hash gets a final avalanche pass,
// and so does each (key, worker) combination.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}
