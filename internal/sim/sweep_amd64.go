//go:build !purego

package sim

// useAVX selects the AVX bodies of sweep_amd64.s for the 2×2, block,
// dense and complex-diagonal sweeps at every stride, and for the phase
// runs of the monomial run form.
// It is true when the CPU has AVX and the OS saves the YMM registers;
// tests clear it to run the Go bodies they are compared against.
var useAVX = cpuAVX()

// cpuAVX reports CPUID.1:ECX.OSXSAVE and AVX, and XCR0's XMM and YMM
// state bits.
func cpuAVX() bool

// pairSweepAVX sweeps the 2×2 or block kernel cf describes over the
// tile groups geo walks (see vecGeom), in place.
//
//go:noescape
func pairSweepAVX(re, im []float64, cf *pairCoefs, geo *vecGeom)

// denseSweepAVX sweeps the dense 4×4 cf describes over the tile groups geo
// walks, in place.
//
//go:noescape
func denseSweepAVX(re, im []float64, cf *denseCoefs, geo *vecGeom)

// phaseSweepAVX scales every amplitude of the tile groups geo walks by its
// lane's phase in cf, in place.
//
//go:noescape
func phaseSweepAVX(re, im []float64, cf *phaseCoefs, geo *vecGeom)

// phaseRunAVX scales the first len(sr)&^3 elements of sr + i·si by
// pr + i·pi in place. The caller slices si to len(sr).
//
//go:noescape
func phaseRunAVX(pr, pi float64, sr, si []float64)
