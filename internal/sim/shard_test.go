package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestShardPoolCloseWaitsForWorkers: close returns once every worker has
// exited, so a sweep lane, which opens a pool per point, never runs its
// next point beside the previous point's workers. A worker's last act is
// its signal to close, and the few instructions from there to the end of
// its goroutine are a window the race detector and a busy machine widen,
// so the count is taken after each of a few fresh pools, each started once
// the last one's goroutines are gone, and must be back at its baseline
// after one of them: a close that returned before its workers exited
// leaves four extra goroutines every time.
func TestShardPoolCloseWaitsForWorkers(t *testing.T) {
	before, after := runtime.NumGoroutine(), 0
	for attempt := 0; attempt < 5; attempt++ {
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		p := newShardPool(4)
		p.do(64, func(_, _, _ int) {})
		p.close()
		if after = runtime.NumGoroutine(); after <= before {
			return
		}
	}
	t.Fatalf("%d goroutines right after close, %d before the pool started", after, before)
}
