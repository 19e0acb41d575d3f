package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/circuit"
	"repro/internal/qop"
	"repro/internal/sim"
	"repro/internal/transpile"
)

// heavyCircuit returns the transpiled circuit of the widest noiseless
// gate job among the workload's first ops (a sweep's first bound point):
// the circuit the kernel-level probes run on.
func heavyCircuit(gen *Generator) (*circuit.Circuit, error) {
	var widest *bundle.Bundle
	for i := 0; i < len(mixPattern); i++ {
		op, err := gen.Op(i)
		if err != nil {
			return nil, err
		}
		if op.Class != classGate && op.Class != classSim20 && op.Class != classSweep {
			continue
		}
		b, err := bundle.FromJSON(op.Body, qop.ValidateOptions{})
		if err != nil {
			return nil, err
		}
		if op.Points > 0 {
			if b, err = b.BindPoint(b.Context.Sweep.Points[0]); err != nil {
				return nil, err
			}
		}
		if widest == nil || b.QDTs[0].Width > widest.QDTs[0].Width {
			widest = b
		}
	}
	lowered, err := algolib.Lower(widest.Operators, registers(widest))
	if err != nil {
		return nil, err
	}
	tr, err := transpile.Transpile(lowered.Circuit, transpile.FromContext(widest.Context))
	if err != nil {
		return nil, err
	}
	return tr.Circuit, nil
}

// kernelBytes is the memory traffic of one kernel over a 2^n state,
// computed from its kind and support mask, not measured: two planes of
// 8-byte floats, each amplitude the kernel touches read once and written
// once. Dense, monomial and diagonal kernels touch every amplitude; a
// controlled exchange over k qubits touches the 2^(n−k+1) amplitudes whose
// controls are set; a controlled phase touches the 2^(n−k) amplitudes of
// its all-ones subspace. Cache misses beyond that are not counted.
func kernelBytes(kind string, support uint64, n int) float64 {
	k := bits.OnesCount64(support)
	touched := float64(uint64(1) << n)
	switch kind {
	case "permute":
		touched /= float64(uint64(1) << max(0, k-1))
	case "ctrlphase":
		touched /= float64(uint64(1) << k)
	}
	return 2 * 8 * touched * 2
}

// triad measures STREAM-triad bandwidth, a[i] = b[i] + s·c[i], over three
// arrays of n floats with the given number of goroutines, and returns the
// best GB/s over the passes of about 50 ms. Bytes are counted as STREAM
// counts them: two reads and one write per element.
func triad(n, goroutines int) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	pass := func() time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			lo, hi := g*n/goroutines, (g+1)*n/goroutines
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	best := time.Duration(0)
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline) || best == 0; {
		if d := pass(); best == 0 || d < best {
			best = d
		}
	}
	return 3 * 8 * float64(n) / best.Seconds() / 1e9
}

// llcSize reports the last-level cache size the kernel advertises for
// cpu0, for the note beside the triad.
func llcSize() string {
	for idx := 4; idx >= 0; idx-- {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err == nil {
			return strings.TrimSpace(string(raw))
		}
	}
	return "unknown"
}

// simProbes fills the kernel-level metrics on the workload's widest
// circuit: allocations per run, the per-kind kernel table against the
// triad measured in the same run at the same array size, and what a
// second shard buys.
func simProbes(m layerMetrics, rep *Report, gen *Generator) error {
	circ, err := heavyCircuit(gen)
	if err != nil {
		return err
	}
	n := circ.NumQubits
	nproc := runtime.NumCPU()
	opts := sim.Options{Shots: gateShots, Seed: 1, Shards: nproc}

	// Allocation counters are cumulative, so no GC needs forcing; the
	// first run warms whatever is lazily built.
	if _, err := sim.Run(circ, opts); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.Run(circ, opts); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m.set("sim.allocs_per_run", float64(after.Mallocs-before.Mallocs))
	m.set("sim.alloc_mb_per_run", float64(after.TotalAlloc-before.TotalAlloc)/1e6)

	gbs := 0.0
	for _, g := range []int{1, nproc} {
		gbs = max(gbs, triad(1<<n, g))
	}
	m.set("sim.triad_gbs", gbs)

	pl, err := sim.Compile(circ)
	if err != nil {
		return err
	}
	execute := func(shards int) (*sim.Profile, time.Duration, error) {
		st, err := sim.NewState(n)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		prof, err := pl.ExecuteProfiled(st, shards)
		return prof, time.Since(start), err
	}
	const runs = 3
	kindMS := map[string][]float64{}
	kindGB := map[string]float64{}
	var wide, narrow, imbalance []float64
	for r := 0; r < runs; r++ {
		prof, d, err := execute(nproc)
		if err != nil {
			return err
		}
		wide = append(wide, d.Seconds())
		perKind := map[string]float64{}
		gb := map[string]float64{}
		for _, k := range prof.Kernels {
			perKind[k.Kind] += float64(k.Ns) / 1e6
			gb[k.Kind] += kernelBytes(k.Kind, k.Support, n) / 1e9
			if k.Imbalance > 0 {
				imbalance = append(imbalance, k.Imbalance)
			}
		}
		for _, kind := range kernelKinds {
			kindMS[kind] = append(kindMS[kind], perKind[kind])
			kindGB[kind] = gb[kind]
		}
		if _, d, err = execute(1); err != nil {
			return err
		}
		narrow = append(narrow, d.Seconds())
	}
	for _, kind := range kernelKinds {
		ms := median(kindMS[kind])
		m.set("sim.kernel."+kind+".ms", ms)
		m.set("sim.kernel."+kind+".gb", kindGB[kind])
		if ms > 0 {
			m.set("sim.kernel."+kind+".bw_frac", kindGB[kind]/(ms/1e3)/gbs)
		}
	}
	m.set("sim.shard_speedup", median(narrow)/median(wide))
	mean := 0.0
	for _, v := range imbalance {
		mean += v / float64(len(imbalance))
	}
	m.set("sim.shard_imbalance", mean)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"kernel probes on the workload's widest circuit: %d qubits, %d kernels, shards 1 vs %d; kernel GB are computed from kind and support, not measured; sim.triad_gbs is bandwidth at the state's working-set size (3 arrays of %d KiB, reported LLC %s), not DRAM bandwidth unless the arrays exceed the LLC",
		n, pl.Stats().Kernels, nproc, (8<<n)>>10, llcSize()))
	return nil
}
