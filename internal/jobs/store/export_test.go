package store

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Barrier is the fsync barrier in a test's hand, for this package's tests
// and for those that drive the store through the tiers above it (package
// store_test): while held, the syncer parks before every fsync.
type Barrier struct{ gate atomic.Pointer[chan struct{}] }

// InstallBarrier sets testSyncHook for the length of the test. Call it
// before the first Open — the syncer reads the hook, the test only the
// gate — and release every hold before a Close, which waits for the syncer.
func InstallBarrier(t testing.TB) *Barrier {
	b := &Barrier{}
	testSyncHook = func() {
		if ch := b.gate.Load(); ch != nil {
			<-*ch
		}
	}
	t.Cleanup(func() { testSyncHook = nil }) // registered first, so it runs last
	return b
}

// Hold parks the syncer from now until release is called; calling release
// again is harmless.
func (b *Barrier) Hold() (release func()) {
	ch := make(chan struct{})
	b.gate.Store(&ch)
	var once sync.Once
	return func() {
		once.Do(func() {
			b.gate.CompareAndSwap(&ch, nil)
			close(ch)
		})
	}
}
