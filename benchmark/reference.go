package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// The machine-speed reference. The box this benchmark runs on is a few
// vCPUs of a shared host whose speed, as the guest sees it, moves by 10 to
// 40 % for seconds to minutes at a time (neighbours on the host's cores and
// memory system; steal reads zero throughout). A stretch like that is longer
// than a run, so no estimator inside a run removes it: ten runs of one
// unchanged program spread by 7 to 14 % in a quiet hour and by 25 to 37 % in
// a disturbed one. What does remove it is measuring the machine beside the
// program. Between ops, while the servers are idle, the lone caller runs two
// fixed pieces of work that depend on nothing in the repository, and the
// run's timed values are divided by how much slower than nominal those ran.
// Over ten runs of one workload the two track the program's own median
// latency with correlation 0.82 to 0.97, and the divided values spread by a
// fifth to a half of what the measured ones do in a disturbed hour (README,
// "Steadiness").

const (
	// refEvery is the least time between two reference samples. One sample
	// takes about 3 ms, so the reference costs about 3 % of a phase.
	refEvery = 100 * time.Millisecond
	// refWarmups samples are run and discarded before a phase, so that the
	// reference's own pages and caches are warm when it first counts.
	refWarmups = 3
	// refComputeNominalMS and refJSONNominalMS are what the two kinds take
	// on this class of machine (Xeon 2.1 GHz vCPU, go1.24) while nothing
	// disturbs it: the lowest run medians of sixty runs. They only fix the
	// scale: a machine that is uniformly faster reads uniformly lower
	// values, and two commits measured on one machine compare as they would
	// with any other constants.
	refComputeNominalMS = 1.75
	refJSONNominalMS    = 1.03
)

// refBuf is the compute kind's working set: 512 KiB, resident in L2.
var refBuf = make([]float64, 1<<16)

// refSink keeps the compute kind's result alive.
var refSink float64

// refCompute is a fixed multiply-add loop, 40 passes over refBuf. It slows
// with the core: its clock, and whoever shares it.
func refCompute() {
	a := refBuf
	acc := 0.0
	for pass := 0; pass < 40; pass++ {
		for i := range a {
			a[i] = a[i]*1.0000001 + 0.5
			acc += a[i]
		}
	}
	refSink = acc
}

// refDoc is the JSON kind's input: forty small objects, about 4 KB.
var refDoc = func() []byte {
	doc := map[string]any{}
	for i := 0; i < 40; i++ {
		doc[fmt.Sprintf("key%02d", i)] = map[string]any{
			"id": i, "name": fmt.Sprintf("entry-%d", i), "vals": []float64{1.5, 2.5, 3.5, float64(i)}, "ok": true,
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return raw
}()

// refJSON decodes refDoc into maps and encodes it again, eight times. It
// allocates, chases pointers and feeds the garbage collector, so it slows
// with the memory system as well as with the core, as the servers do.
func refJSON() {
	for k := 0; k < 8; k++ {
		var v map[string]any
		if err := json.Unmarshal(refDoc, &v); err != nil {
			panic(err)
		}
		if _, err := json.Marshal(v); err != nil {
			panic(err)
		}
	}
}

// RefSample is one timing of the two kinds.
type RefSample struct {
	ComputeMS, JSONMS float64
}

// refSample times each kind once.
func refSample() RefSample {
	t0 := time.Now()
	refCompute()
	t1 := time.Now()
	refJSON()
	return RefSample{ComputeMS: millis(t1.Sub(t0)), JSONMS: millis(time.Since(t1))}
}

// refWarm runs the reference until it is warm.
func refWarm() {
	for i := 0; i < refWarmups; i++ {
		refSample()
	}
}

// refKeep is the share of a kind's samples, counted from the fastest, whose
// mean is the kind's typical time.
const refKeep = 0.8

// slowdown is how much slower than nominal the machine ran while the
// samples were taken: the mean, over the two kinds, of the kind's typical
// time over its nominal time. 1 is the undisturbed machine.
//
// Typical is the mean of the fastest four fifths. A mean, because an op
// lasts long enough to average over the machine's bursts, which a median of
// millisecond samples ignores: under disturbance a median slowdown
// under-corrects the latency (spread over ten runs 5.6 to 9.6 % against 2.2
// to 7.3 % for the mean) and the CPU cost, which is a sum. The slowest fifth
// is dropped because it holds the reference's own accidents, a collection in
// the load generator or its thread descheduled, which the servers do not
// share. Over six sets of ten runs the root-mean-square spread of the
// divided latency was 3.8 % with the median, 3.4 % with the mean and 2.8 %
// with this; of the divided CPU cost 3.8, 3.0 and 2.3 %.
func slowdown(samples []RefSample) float64 {
	compute := make([]float64, len(samples))
	js := make([]float64, len(samples))
	for i, s := range samples {
		compute[i], js[i] = s.ComputeMS, s.JSONMS
	}
	return (lowerMean(compute, refKeep)/refComputeNominalMS + lowerMean(js, refKeep)/refJSONNominalMS) / 2
}
