package backend

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/graph"
	"repro/internal/qdt"
)

// TestGateSweepWarmPoints: a prepared gate sweep's points run on the
// arena the previous point left (sim.RunPlan's spare arenas), so on a
// 14-qubit template a point after the first allocates less than one
// amplitude plane, measured over the warm points as sim's
// TestRunnerWarmAllocs measures warm runs. A fresh arena is three planes
// (two for the state, one for the CDF); what a warm point does allocate
// is its bound plan, its counts and their decoded entries, about 50 KB
// here. The mean, not every point, is bounded: a spare arena sits in a
// sync.Pool, which a point misses now and then (about one point in 60 on
// a 2-vCPU machine) when its goroutine has moved to another P since the
// last point closed.
func TestGateSweepWarmPoints(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector drops sync.Pool items at random, so a point may find no spare arena")
	}
	const n = 14
	var points [][]float64
	for i := 0; i < 32; i++ {
		points = append(points, []float64{0.1 + 0.07*float64(i), 0.2 + 0.05*float64(i)})
	}
	reg := qdt.NewIsingVars("ising_vars", "s", n)
	seq, err := algolib.BuildQAOASymbolic(reg, graph.Cycle(n), []string{"gamma0"}, []string{"beta0"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxdesc.NewGate("gate.statevector", 64, 5)
	ctx.Sweep = &ctxdesc.Sweep{Params: []string{"gamma0", "beta0"}, Points: points}
	b, err := bundle.New([]*qdt.DataType{reg}, seq, ctx)
	if err != nil {
		t.Fatal(err)
	}
	concrete := make([]*bundle.Bundle, len(points))
	for i, pt := range points {
		if concrete[i], err = b.BindPoint(pt); err != nil {
			t.Fatal(err)
		}
	}
	be, err := Get("gate.statevector")
	if err != nil {
		t.Fatal(err)
	}
	h, err := be.Prepare(b, ExecOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(*gateSweep); !ok {
		t.Fatalf("prepared %T, want the parametric *gateSweep", h)
	}
	run := func(i int) {
		if _, err := h.Run(i, concrete[i]); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i < len(points); i++ {
		run(i)
	}
	runtime.ReadMemStats(&m1)
	warm := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(points)-1)
	if plane := uint64(8 << n); warm >= plane {
		t.Errorf("a warm point allocates %d bytes on average; one plane is %d", warm, plane)
	}
}

// raceBuild reports a -race build, whose sync.Pool drops items at random.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
