//go:build !purego

#include "textflag.h"

// AVX bodies of the run-form sweeps (see sweep_amd64.go). Every body is
// four lanes of the Go expression it replaces, operation for operation:
// the same products, the same grouping, the same operand order for every
// subtraction, and no fused multiply-add, so each lane rounds as the
// scalar MULSD/ADDSD/SUBSD sequence does. Go's three-operand AVX syntax
// reads "VSUBPD b, a, d" as d = a − b. Loads and stores are unaligned,
// the loop count is the first stream's length rounded down to a multiple
// of 4, and every return clears the upper halves with VZEROUPPER.

// func cpuAVX() bool
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV               // XCR0: the OS saves XMM (bit 1) and YMM (bit 2)
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func pairRunAVX(m *[8]float64, r0, i0, r1, i1 []float64)
//
// blockPair over four streams; m holds m00r, m00i, m01r, m01i, m10r,
// m10i, m11r, m11i.
TEXT ·pairRunAVX(SB), NOSPLIT, $0-104
	MOVQ m+0(FP), DX
	MOVQ r0_base+8(FP), SI
	MOVQ r0_len+16(FP), CX
	MOVQ i0_base+32(FP), DI
	MOVQ r1_base+56(FP), R8
	MOVQ i1_base+80(FP), R9
	ANDQ $-4, CX
	VBROADCASTSD 0(DX), Y8   // m00r
	VBROADCASTSD 8(DX), Y9   // m00i
	VBROADCASTSD 16(DX), Y10 // m01r
	VBROADCASTSD 24(DX), Y11 // m01i
	VBROADCASTSD 32(DX), Y12 // m10r
	VBROADCASTSD 40(DX), Y13 // m10i
	VBROADCASTSD 48(DX), Y14 // m11r
	VBROADCASTSD 56(DX), Y15 // m11i
	XORQ AX, AX

pairloop:
	CMPQ AX, CX
	JGE  pairdone
	VMOVUPD (SI)(AX*8), Y0 // a0r
	VMOVUPD (DI)(AX*8), Y1 // a0i
	VMOVUPD (R8)(AX*8), Y2 // a1r
	VMOVUPD (R9)(AX*8), Y3 // a1i

	// b0r = (m00r*a0r - m00i*a0i) + (m01r*a1r - m01i*a1i)
	VMULPD Y0, Y8, Y4
	VMULPD Y1, Y9, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y2, Y10, Y5
	VMULPD Y3, Y11, Y6
	VSUBPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (SI)(AX*8)

	// b0i = (m00r*a0i + m00i*a0r) + (m01r*a1i + m01i*a1r)
	VMULPD Y1, Y8, Y4
	VMULPD Y0, Y9, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y3, Y10, Y5
	VMULPD Y2, Y11, Y6
	VADDPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)

	// b1r = (m10r*a0r - m10i*a0i) + (m11r*a1r - m11i*a1i)
	VMULPD Y0, Y12, Y4
	VMULPD Y1, Y13, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y2, Y14, Y5
	VMULPD Y3, Y15, Y6
	VSUBPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (R8)(AX*8)

	// b1i = (m10r*a0i + m10i*a0r) + (m11r*a1i + m11i*a1r)
	VMULPD Y1, Y12, Y4
	VMULPD Y0, Y13, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y3, Y14, Y5
	VMULPD Y2, Y15, Y6
	VADDPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y4, (R9)(AX*8)

	ADDQ $4, AX
	JMP  pairloop

pairdone:
	VZEROUPPER
	RET

// DENSE_FIRST starts one output row of the dense 4×4 at column 0:
// Y8 = mr*ar - mi*ai and Y9 = mr*ai + mi*ar, the row's first terms,
// with mr at mro(DX) and mi at mio(DX).
#define DENSE_FIRST(mro, mio, AR, AI) \
	VBROADCASTSD mro(DX), Y10; \
	VBROADCASTSD mio(DX), Y11; \
	VMULPD AR, Y10, Y8; \
	VMULPD AI, Y11, Y12; \
	VSUBPD Y12, Y8, Y8; \
	VMULPD AI, Y10, Y9; \
	VMULPD AR, Y11, Y13; \
	VADDPD Y13, Y9, Y9

// DENSE_NEXT adds the next column's terms to the row, left to right:
// Y8 += (mr*ar - mi*ai) and Y9 += (mr*ai + mi*ar).
#define DENSE_NEXT(mro, mio, AR, AI) \
	VBROADCASTSD mro(DX), Y10; \
	VBROADCASTSD mio(DX), Y11; \
	VMULPD AR, Y10, Y12; \
	VMULPD AI, Y11, Y13; \
	VSUBPD Y13, Y12, Y12; \
	VADDPD Y12, Y8, Y8; \
	VMULPD AI, Y10, Y14; \
	VMULPD AR, Y11, Y15; \
	VADDPD Y15, Y14, Y14; \
	VADDPD Y14, Y9, Y9

// func denseRunAVX(m *gates.Split4, r0, i0, r1, i1, r2, i2, r3, i3 []float64)
//
// The dense 4×4 over eight quadrant streams; m.Re[j][c] is at 8*(4j+c)
// and m.Im[j][c] 128 bytes further.
TEXT ·denseRunAVX(SB), NOSPLIT, $0-200
	MOVQ m+0(FP), DX
	MOVQ r0_base+8(FP), SI
	MOVQ r0_len+16(FP), CX
	MOVQ i0_base+32(FP), DI
	MOVQ r1_base+56(FP), R8
	MOVQ i1_base+80(FP), R9
	MOVQ r2_base+104(FP), R10
	MOVQ i2_base+128(FP), R11
	MOVQ r3_base+152(FP), R12
	MOVQ i3_base+176(FP), R13
	ANDQ $-4, CX
	XORQ AX, AX

denseloop:
	CMPQ AX, CX
	JGE  densedone
	VMOVUPD (SI)(AX*8), Y0  // a0r
	VMOVUPD (DI)(AX*8), Y1  // a0i
	VMOVUPD (R8)(AX*8), Y2  // a1r
	VMOVUPD (R9)(AX*8), Y3  // a1i
	VMOVUPD (R10)(AX*8), Y4 // a2r
	VMOVUPD (R11)(AX*8), Y5 // a2i
	VMOVUPD (R12)(AX*8), Y6 // a3r
	VMOVUPD (R13)(AX*8), Y7 // a3i

	DENSE_FIRST(0, 128, Y0, Y1)
	DENSE_NEXT(8, 136, Y2, Y3)
	DENSE_NEXT(16, 144, Y4, Y5)
	DENSE_NEXT(24, 152, Y6, Y7)
	VMOVUPD Y8, (SI)(AX*8)
	VMOVUPD Y9, (DI)(AX*8)

	DENSE_FIRST(32, 160, Y0, Y1)
	DENSE_NEXT(40, 168, Y2, Y3)
	DENSE_NEXT(48, 176, Y4, Y5)
	DENSE_NEXT(56, 184, Y6, Y7)
	VMOVUPD Y8, (R8)(AX*8)
	VMOVUPD Y9, (R9)(AX*8)

	DENSE_FIRST(64, 192, Y0, Y1)
	DENSE_NEXT(72, 200, Y2, Y3)
	DENSE_NEXT(80, 208, Y4, Y5)
	DENSE_NEXT(88, 216, Y6, Y7)
	VMOVUPD Y8, (R10)(AX*8)
	VMOVUPD Y9, (R11)(AX*8)

	DENSE_FIRST(96, 224, Y0, Y1)
	DENSE_NEXT(104, 232, Y2, Y3)
	DENSE_NEXT(112, 240, Y4, Y5)
	DENSE_NEXT(120, 248, Y6, Y7)
	VMOVUPD Y8, (R12)(AX*8)
	VMOVUPD Y9, (R13)(AX*8)

	ADDQ $4, AX
	JMP  denseloop

densedone:
	VZEROUPPER
	RET

// func phaseRunAVX(pr, pi float64, sr, si []float64)
//
// The in-place complex scale sr + i·si ← (sr + i·si)·(pr + i·pi):
// sr = ar*pr - ai*pi, si = ar*pi + ai*pr.
TEXT ·phaseRunAVX(SB), NOSPLIT, $0-64
	VBROADCASTSD pr+0(FP), Y8
	VBROADCASTSD pi+8(FP), Y9
	MOVQ sr_base+16(FP), SI
	MOVQ sr_len+24(FP), CX
	MOVQ si_base+40(FP), DI
	ANDQ $-4, CX
	XORQ AX, AX

phaseloop:
	CMPQ AX, CX
	JGE  phasedone
	VMOVUPD (SI)(AX*8), Y0 // ar
	VMOVUPD (DI)(AX*8), Y1 // ai
	VMULPD Y8, Y0, Y2
	VMULPD Y9, Y1, Y3
	VSUBPD Y3, Y2, Y2
	VMULPD Y9, Y0, Y4
	VMULPD Y8, Y1, Y5
	VADDPD Y5, Y4, Y4
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  phaseloop

phasedone:
	VZEROUPPER
	RET
