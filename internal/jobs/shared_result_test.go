package jobs

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/jobs/store"
	"repro/internal/result"
)

// heldGate is the statevector engine with a hold in front of every point:
// Run announces itself on ran and waits until release is closed.
type heldGate struct {
	ran     chan struct{}
	release chan struct{}
}

func (g *heldGate) Name() string { return "test.held_gate" }

func (g *heldGate) Prepare(b *bundle.Bundle, o backend.ExecOptions) (backend.Prepared, error) {
	be, err := backend.Get("gate.statevector")
	if err != nil {
		return nil, err
	}
	h, err := be.Prepare(b, o)
	if err != nil {
		return nil, err
	}
	return heldRun{h, g}, nil
}

type heldRun struct {
	backend.Prepared
	g *heldGate
}

func (r heldRun) Run(i int, concrete *bundle.Bundle) (*result.Result, error) {
	select {
	case r.g.ran <- struct{}{}:
	default:
	}
	<-r.g.release
	return r.Prepared.Run(i, concrete)
}

// TestDuplicateResultsShareOneExecution: a sweep's twin points, a
// coalesced duplicate of the sweep and a later plain job served from the
// cache hold one execution's results, the same values, since a result is
// read-only once an engine returns it. The result documents and the store
// then encode those shared values concurrently (run it under -race), and
// every copy of each encoding has the same bytes.
func TestDuplicateResultsShareOneExecution(t *testing.T) {
	gate := &heldGate{ran: make(chan struct{}, 1), release: make(chan struct{})}
	backend.Register(gate.Name(), func() backend.Backend { return gate })
	t.Cleanup(func() { backend.Unregister(gate.Name()) })
	p := NewPool(Options{Workers: 1, MaxShards: 1})
	defer p.Close()

	points := [][]float64{{0.4, 1.1}, {0.9, 0.3}, {0.4, 1.1}}
	b := laneSweepBundle(t, gate.Name(), 6, points)
	first, err := submitSweep(p, b)
	if err != nil {
		t.Fatal(err)
	}
	<-gate.ran // the first point is executing, held
	second, err := p.SubmitSweep(laneSweepBundle(t, gate.Name(), 6, points), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	for _, id := range []string{first, second.ID} {
		if st, err := p.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("sweep %s: %v %+v", id, err, st)
		}
	}
	cb, err := b.BindPoint(points[0])
	if err != nil {
		t.Fatal(err)
	}
	plain, err := p.Submit(cb, SubmitOptions{})
	if err != nil || !plain.CacheHit {
		t.Fatalf("plain twin of point 0: %v cache_hit=%v", err, plain.CacheHit)
	}
	if st, _ := p.Status(second.ID); !st.Coalesced {
		t.Fatal("the second sweep did not coalesce onto the first")
	}

	r1, err1 := p.SweepResult(first)
	r2, err2 := p.SweepResult(second.ID)
	rp, errp := p.Result(plain.ID)
	if err1 != nil || err2 != nil || errp != nil {
		t.Fatalf("results: %v / %v / %v", err1, err2, errp)
	}
	shared := r1[0]
	for name, r := range map[string]*result.Result{
		"twin point 2": r1[2], "coalesced point 0": r2[0], "coalesced point 2": r2[2], "cache hit": rp,
	} {
		if r != shared {
			t.Errorf("%s holds a result of its own, not point 0's", name)
		}
	}
	if r1[1] != r2[1] {
		t.Error("the coalesced sweep's point 1 is not the primary's")
	}

	// Every encoder at once, over the shared values, several times each.
	// PutResult writes into a store of its own per copy, whose one result
	// segment is that copy's bytes.
	key, err := CacheKey(cb)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(write func(context.Context, io.Writer, string) error, id string) func() ([]byte, error) {
		return func() ([]byte, error) {
			var buf bytes.Buffer
			err := write(context.Background(), &buf, id)
			return buf.Bytes(), err
		}
	}
	stored := func() ([]byte, error) {
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{Sync: store.SyncNone})
		if err != nil {
			return nil, err
		}
		err = st.PutResult(key, shared)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		return os.ReadFile(filepath.Join(dir, "results", "seg-00000001.log"))
	}
	encoders := map[string]func() ([]byte, error){
		"result":       doc(p.WriteResult, plain.ID),
		"sweep":        doc(p.WriteSweepResult, first),
		"coalesced":    doc(p.WriteSweepResult, second.ID),
		"stored point": stored,
	}
	const copies = 4
	out := map[string][][]byte{}
	for name := range encoders {
		out[name] = make([][]byte, copies)
	}
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		for name, enc := range encoders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b, err := enc()
				if err != nil {
					t.Errorf("%s copy %d: %v", name, c, err)
				}
				out[name][c] = b
			}()
		}
	}
	wg.Wait()
	for name, docs := range out {
		if len(docs[0]) == 0 {
			t.Errorf("%s: empty encoding", name)
		}
		for c := 1; c < copies; c++ {
			if !bytes.Equal(docs[c], docs[0]) {
				t.Errorf("%s: copy %d differs from copy 0", name, c)
			}
		}
	}
}
