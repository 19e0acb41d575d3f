//go:build !amd64 || purego

package sim

// useAVX is false: this build has no vector bodies, and every sweep runs
// its one Go loop only.
const useAVX = false

// The vector bodies' stand-ins. useAVX is false, so nothing calls them.

func pairSweepAVX(re, im []float64, cf *pairCoefs, geo *vecGeom) {
	panic("sim: no vector body in this build")
}

func denseSweepAVX(re, im []float64, cf *denseCoefs, geo *vecGeom) {
	panic("sim: no vector body in this build")
}

func phaseSweepAVX(re, im []float64, cf *phaseCoefs, geo *vecGeom) {
	panic("sim: no vector body in this build")
}
