//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// AVX bodies of the 2×2, block, dense 4×4 and diagonal sweeps (see
// sweep_amd64.go). Every lane
// of a body is its Go expression, operation for operation: the same
// products, the same grouping, the same operand order for every
// subtraction, and no fused multiply-add, so each lane rounds as the
// scalar MULSD/ADDSD/SUBSD sequence does; shuffles and broadcasts only
// move bits. Go's three-operand AVX syntax reads "VSUBPD b, a, d" as
// d = a − b. Loads and stores are unaligned, and every return clears the
// upper halves with VZEROUPPER.

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

// ---- whole-range sweep bodies ----
//
// pairSweepAVX, denseSweepAVX and phaseSweepAVX sweep the tile groups a
// vecGeom describes (vecsweep.go). Registers common to the three:
//
//	SI, DI    the re and im planes
//	DX        the per-lane coefficients
//	AX        the group's first amplitude index
//	CX        the groups left
//	BX, R11   hold and its complement: the walk's step is NEXT_GROUP
//	R12, R13  off1 and off2
//	R8–R10    the group's other tiles
//
// Every lane computes its scalar loop's expression with its own
// coefficients, in the same order, so the rounding matches lane by lane.

// SWEEP_SETUP loads the registers above from the vecGeom at R14.
#define SWEEP_SETUP \
	MOVQ vecGeom_first(R14), AX; \
	MOVQ vecGeom_groups(R14), CX; \
	MOVQ vecGeom_hold(R14), BX; \
	MOVQ BX, R11; \
	NOTQ R11; \
	MOVQ vecGeom_off1(R14), R12; \
	MOVQ vecGeom_off2(R14), R13

// NEXT_GROUP steps AX to the next index with hold's bits clear, counts
// the group off, and leaves ZF set after the last.
#define NEXT_GROUP \
	ORQ  BX, AX; \
	INCQ AX; \
	ANDQ R11, AX; \
	DECQ CX

// PAIR_ROW writes one output tile of a pair sweep at index X, from the
// sources a0 = Y0 + i·Y1 and a1 = Y2 + i·Y3 and the coefficients C0, C1
// at c(DX):
// re = (C0r*a0r - C0i*a0i) + (C1r*a1r - C1i*a1i),
// im = (C0r*a0i + C0i*a0r) + (C1r*a1i + C1i*a1r), blockPair's rows.
#define PAIR_ROW(c, X) \
	VMOVUPD c+0(DX), Y8; \
	VMOVUPD c+32(DX), Y9; \
	VMOVUPD c+64(DX), Y10; \
	VMOVUPD c+96(DX), Y11; \
	VMULPD  Y8, Y0, Y4; \
	VMULPD  Y9, Y1, Y5; \
	VSUBPD  Y5, Y4, Y4; \
	VMULPD  Y10, Y2, Y5; \
	VMULPD  Y11, Y3, Y6; \
	VSUBPD  Y6, Y5, Y5; \
	VADDPD  Y5, Y4, Y4; \
	VMULPD  Y8, Y1, Y5; \
	VMULPD  Y9, Y0, Y6; \
	VADDPD  Y6, Y5, Y5; \
	VMULPD  Y10, Y3, Y6; \
	VMULPD  Y11, Y2, Y7; \
	VADDPD  Y7, Y6, Y6; \
	VADDPD  Y6, Y5, Y5; \
	VMOVUPD Y4, (SI)(X*8); \
	VMOVUPD Y5, (DI)(X*8)

// PAIR_WIDE sweeps the pairs between the tiles at X and P (the gate
// qubit's mask is 4 or more) with the coefficients at c(DX).
#define PAIR_WIDE(c, X, P) \
	VMOVUPD (SI)(X*8), Y0; \
	VMOVUPD (DI)(X*8), Y1; \
	VMOVUPD (SI)(P*8), Y2; \
	VMOVUPD (DI)(P*8), Y3; \
	PAIR_ROW(c, X); \
	PAIR_ROW(c+128, P)

// PAIR_S1 sweeps the stride-1 pairs inside the tile at X: a0 is each
// lane's even neighbor, a1 its odd one ([v0,v0,v2,v2], [v1,v1,v3,v3]).
#define PAIR_S1(c, X) \
	VMOVDDUP  (SI)(X*8), Y0; \
	VMOVDDUP  (DI)(X*8), Y1; \
	VPERMILPD $15, (SI)(X*8), Y2; \
	VPERMILPD $15, (DI)(X*8), Y3; \
	PAIR_ROW(c, X)

// PAIR_S2 sweeps the stride-2 pairs inside the tile at X: a0 is the
// tile's low half in both halves, a1 its high half ([v0,v1,v0,v1],
// [v2,v3,v2,v3]).
#define PAIR_S2(c, X) \
	VBROADCASTF128 (SI)(X*8), Y0; \
	VBROADCASTF128 (DI)(X*8), Y1; \
	VBROADCASTF128 16(SI)(X*8), Y2; \
	VBROADCASTF128 16(DI)(X*8), Y3; \
	PAIR_ROW(c, X)

// func pairSweepAVX(re, im []float64, cf *pairCoefs, geo *vecGeom)
//
// The 2×2 and block sweeps. off1 is the gate qubit's mask when it is 4 or
// more (shuf is 0), else shuf is that mask; off2 is the selecting qubit's
// mask when it is 4 or more, whose tiles take the coefficients of unit 1.
TEXT ·pairSweepAVX(SB), NOSPLIT, $0-64
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ cf+48(FP), DX
	MOVQ geo+56(FP), R14
	SWEEP_SETUP
	MOVQ vecGeom_shuf(R14), R8
	CMPQ R8, $1
	JEQ  pairs1
	CMPQ R8, $2
	JEQ  pairs2

pairwide:
	LEAQ  (AX)(R12*1), R8
	PAIR_WIDE(0, AX, R8)
	TESTQ R13, R13
	JZ    pairwidenext
	LEAQ  (AX)(R13*1), R9
	LEAQ  (R9)(R12*1), R10
	PAIR_WIDE(256, R9, R10)

pairwidenext:
	NEXT_GROUP
	JNZ pairwide
	JMP pairdone

pairs1:
	PAIR_S1(0, AX)
	TESTQ R13, R13
	JZ    pairs1next
	LEAQ  (AX)(R13*1), R9
	PAIR_S1(256, R9)

pairs1next:
	NEXT_GROUP
	JNZ pairs1
	JMP pairdone

pairs2:
	PAIR_S2(0, AX)
	TESTQ R13, R13
	JZ    pairs2next
	LEAQ  (AX)(R13*1), R9
	PAIR_S2(256, R9)

pairs2next:
	NEXT_GROUP
	JNZ pairs2

pairdone:
	VZEROUPPER
	RET

// DENSE_TILE writes one output tile of the dense 4×4 at index X from the
// sources a0..a3 in Y0..Y7 (re, im pairs) and the row coefficients at
// c(DX), column k's re at c+64k and im at c+64k+32: each plane's sum of
// the four complex products, left to right, as sweep2Q writes it.
#define DENSE_TILE(c, X) \
	VMOVUPD c+0(DX), Y14; \
	VMOVUPD c+32(DX), Y15; \
	VMULPD  Y14, Y0, Y8; \
	VMULPD  Y15, Y1, Y10; \
	VSUBPD  Y10, Y8, Y8; \
	VMULPD  Y14, Y1, Y9; \
	VMULPD  Y15, Y0, Y11; \
	VADDPD  Y11, Y9, Y9; \
	DENSE_TERM(c+64, Y2, Y3); \
	DENSE_TERM(c+128, Y4, Y5); \
	DENSE_TERM(c+192, Y6, Y7); \
	VMOVUPD Y8, (SI)(X*8); \
	VMOVUPD Y9, (DI)(X*8)

// DENSE_TERM adds the next column's product to the row in Y8 + i·Y9:
// Y8 += (cr*ar - ci*ai), Y9 += (cr*ai + ci*ar).
#define DENSE_TERM(c, AR, AI) \
	VMOVUPD c+0(DX), Y14; \
	VMOVUPD c+32(DX), Y15; \
	VMULPD  Y14, AR, Y10; \
	VMULPD  Y15, AI, Y11; \
	VSUBPD  Y11, Y10, Y10; \
	VADDPD  Y10, Y8, Y8; \
	VMULPD  Y14, AI, Y12; \
	VMULPD  Y15, AR, Y13; \
	VADDPD  Y13, Y12, Y12; \
	VADDPD  Y12, Y9, Y9

// DENSE_S1 loads the sources of the tiles at X and P whose quadruples
// pair up at stride 1 within each tile: a0/a1 the even/odd neighbors in
// X, a2/a3 in P.
#define DENSE_S1(X, P) \
	VMOVDDUP  (SI)(X*8), Y0; \
	VMOVDDUP  (DI)(X*8), Y1; \
	VPERMILPD $15, (SI)(X*8), Y2; \
	VPERMILPD $15, (DI)(X*8), Y3; \
	VMOVDDUP  (SI)(P*8), Y4; \
	VMOVDDUP  (DI)(P*8), Y5; \
	VPERMILPD $15, (SI)(P*8), Y6; \
	VPERMILPD $15, (DI)(P*8), Y7

// DENSE_S2 is DENSE_S1 at stride 2: the low and high halves.
#define DENSE_S2(X, P) \
	VBROADCASTF128 (SI)(X*8), Y0; \
	VBROADCASTF128 (DI)(X*8), Y1; \
	VBROADCASTF128 16(SI)(X*8), Y2; \
	VBROADCASTF128 16(DI)(X*8), Y3; \
	VBROADCASTF128 (SI)(P*8), Y4; \
	VBROADCASTF128 (DI)(P*8), Y5; \
	VBROADCASTF128 16(SI)(P*8), Y6; \
	VBROADCASTF128 16(DI)(P*8), Y7

// func denseSweepAVX(re, im []float64, cf *denseCoefs, geo *vecGeom)
//
// The dense 4×4. Both masks 4 or more: four tiles, each one quadrant.
// One below 4 (shuf): two tiles, each holding two quadrants. Masks 1
// and 2: one tile, one quadruple, each source one lane broadcast.
TEXT ·denseSweepAVX(SB), NOSPLIT, $0-64
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ cf+48(FP), DX
	MOVQ geo+56(FP), R14
	SWEEP_SETUP
	TESTQ R12, R12
	JZ    dense1
	MOVQ  vecGeom_shuf(R14), R8
	CMPQ  R8, $1
	JEQ   dense2s1
	CMPQ  R8, $2
	JEQ   dense2s2

dense4:
	LEAQ    (AX)(R12*1), R8
	LEAQ    (AX)(R13*1), R9
	LEAQ    (R8)(R13*1), R10
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (SI)(R8*8), Y2
	VMOVUPD (DI)(R8*8), Y3
	VMOVUPD (SI)(R9*8), Y4
	VMOVUPD (DI)(R9*8), Y5
	VMOVUPD (SI)(R10*8), Y6
	VMOVUPD (DI)(R10*8), Y7
	DENSE_TILE(0, AX)
	DENSE_TILE(256, R8)
	DENSE_TILE(512, R9)
	DENSE_TILE(768, R10)
	NEXT_GROUP
	JNZ dense4
	JMP densedone

dense2s1:
	LEAQ (AX)(R12*1), R8
	DENSE_S1(AX, R8)
	DENSE_TILE(0, AX)
	DENSE_TILE(256, R8)
	NEXT_GROUP
	JNZ  dense2s1
	JMP  densedone

dense2s2:
	LEAQ (AX)(R12*1), R8
	DENSE_S2(AX, R8)
	DENSE_TILE(0, AX)
	DENSE_TILE(256, R8)
	NEXT_GROUP
	JNZ  dense2s2
	JMP  densedone

dense1:
	VBROADCASTSD (SI)(AX*8), Y0
	VBROADCASTSD (DI)(AX*8), Y1
	VBROADCASTSD 8(SI)(AX*8), Y2
	VBROADCASTSD 8(DI)(AX*8), Y3
	VBROADCASTSD 16(SI)(AX*8), Y4
	VBROADCASTSD 16(DI)(AX*8), Y5
	VBROADCASTSD 24(SI)(AX*8), Y6
	VBROADCASTSD 24(DI)(AX*8), Y7
	DENSE_TILE(0, AX)
	NEXT_GROUP
	JNZ          dense1

densedone:
	VZEROUPPER
	RET

// PHASE_TILE scales the tile at X by the per-lane phase at c(DX):
// re = pr*ar - pi*ai, im = pr*ai + pi*ar.
#define PHASE_TILE(c, X) \
	VMOVUPD c+0(DX), Y5; \
	VMOVUPD c+32(DX), Y6; \
	VMOVUPD (SI)(X*8), Y0; \
	VMOVUPD (DI)(X*8), Y1; \
	VMULPD  Y5, Y0, Y2; \
	VMULPD  Y6, Y1, Y3; \
	VSUBPD  Y3, Y2, Y2; \
	VMULPD  Y5, Y1, Y3; \
	VMULPD  Y6, Y0, Y4; \
	VADDPD  Y4, Y3, Y3; \
	VMOVUPD Y2, (SI)(X*8); \
	VMOVUPD Y3, (DI)(X*8)

// func phaseSweepAVX(re, im []float64, cf *phaseCoefs, geo *vecGeom)
//
// The diagonal: every tile of a group scaled by its phases.
TEXT ·phaseSweepAVX(SB), NOSPLIT, $0-64
	MOVQ re_base+0(FP), SI
	MOVQ im_base+24(FP), DI
	MOVQ cf+48(FP), DX
	MOVQ geo+56(FP), R14
	SWEEP_SETUP
	TESTQ R12, R12
	JZ    phase1
	TESTQ R13, R13
	JZ    phase2

phase4:
	LEAQ (AX)(R12*1), R8
	LEAQ (AX)(R13*1), R9
	LEAQ (R8)(R13*1), R10
	PHASE_TILE(0, AX)
	PHASE_TILE(64, R8)
	PHASE_TILE(128, R9)
	PHASE_TILE(192, R10)
	NEXT_GROUP
	JNZ  phase4
	JMP  phasesweepdone

phase2:
	LEAQ (AX)(R12*1), R8
	PHASE_TILE(0, AX)
	PHASE_TILE(64, R8)
	NEXT_GROUP
	JNZ  phase2
	JMP  phasesweepdone

phase1:
	PHASE_TILE(0, AX)
	NEXT_GROUP
	JNZ phase1

phasesweepdone:
	VZEROUPPER
	RET
