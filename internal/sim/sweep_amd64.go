//go:build !purego

package sim

// useAVX selects the AVX bodies of sweep_amd64.s for the 2×2, block,
// dense 4×4 and diagonal sweeps at every stride; without it each of them
// runs its one Go loop. It is true when the CPU has AVX and the OS saves
// the YMM registers; tests clear it to run the Go loops they are
// compared against.
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
