//go:build !amd64 || purego

package sim

import "repro/internal/gates"

// useAVX is false: this build has no vector bodies, and the run-form
// sweeps run their Go loops only.
const useAVX = false

// The vector bodies' stand-ins. useAVX is false, so nothing calls them.

func pairRunAVX(m *[8]float64, r0, i0, r1, i1 []float64) { panic("sim: no vector body in this build") }

func denseRunAVX(m *gates.Split4, r0, i0, r1, i1, r2, i2, r3, i3 []float64) {
	panic("sim: no vector body in this build")
}

func phaseRunAVX(pr, pi float64, sr, si []float64) { panic("sim: no vector body in this build") }
