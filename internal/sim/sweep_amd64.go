//go:build !purego

package sim

import "repro/internal/gates"

// useAVX selects the AVX bodies of sweep_amd64.s for the run-form sweeps.
// It is true when the CPU has AVX and the OS saves the YMM registers;
// tests clear it to run the Go bodies they are compared against.
var useAVX = cpuAVX()

// cpuAVX reports CPUID.1:ECX.OSXSAVE and AVX, and XCR0's XMM and YMM
// state bits.
func cpuAVX() bool

// pairRunAVX applies blockPair to the first len(r0)&^3 elements of the
// four streams in place; m holds blockPair's matrix arguments in order.
// The caller slices every stream to len(r0).
//
//go:noescape
func pairRunAVX(m *[8]float64, r0, i0, r1, i1 []float64)

// denseRunAVX applies the dense 4×4 of sweep2QBlocked to the first
// len(r0)&^3 elements of the eight quadrant streams in place. The caller
// slices every stream to len(r0).
//
//go:noescape
func denseRunAVX(m *gates.Split4, r0, i0, r1, i1, r2, i2, r3, i3 []float64)

// phaseRunAVX scales the first len(sr)&^3 elements of sr + i·si by
// pr + i·pi in place. The caller slices si to len(sr).
//
//go:noescape
func phaseRunAVX(pr, pi float64, sr, si []float64)
