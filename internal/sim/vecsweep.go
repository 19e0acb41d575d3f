package sim

import "repro/internal/gates"

// ---- vector sweeps: the whole shard range of a kernel in one body ----
//
// With useAVX, the 2×2, block, dense 4×4 and diagonal sweeps run
// their shard's range in the AVX bodies of sweep_amd64.s at every stride.
// A body walks tile groups: a tile is 4 consecutive amplitudes starting
// at a multiple of 4, and a group is the tile at amplitude index i with
// its partner tiles at the kernel's masks of 4 and above. A kernel mask
// below 4 splits each tile into its two halves, which the body pairs up
// with in-register duplicates and permutes. Every lane applies its own
// matrix row, so the coefficients are per-lane vectors, laid out once per
// call by the wrappers below; each lane then computes exactly the scalar
// loop's expression for its amplitude.

// vecGeom is the walk of one vector sweep body over whole tile groups.
// A group's first tile starts at an amplitude index whose low two bits and
// whose bits under off1 and off2 are clear; the body steps from first
// through groups such indices in ascending order, which are the groups of
// the sweep's index range [lo, hi), each step i = ((i | hold) + 1) &^ hold
// with hold = off1 | off2 | 3.
//
// off1 and off2 place a group's partner tiles: tile o sits at
// i + (o&1)·off1 + (o>>1)·off2, and an offset of 0 means the group has no
// such tiles. shuf is the mask below 4 whose halves share a tile (1 or 2),
// or 0. The pair body reads the offsets as the gate qubit's mask (off1)
// and the selecting qubit's (off2); the dense and phase bodies as the
// kernel's masks of 4 and above, ascending.
type vecGeom struct {
	lo, hi     int
	first      int
	groups     int
	hold       int
	off1, off2 int
	shuf       int
}

// newVecGeom lays out the walk of a sweep whose index expands around
// maskLo, and around maskHi when it is not 0 (a quadruple sweep), over
// [lo, hi). The body's range is lo and hi rounded inward to whole groups;
// the caller sweeps what is left at either end with its scalar loop, and
// everything when the body's range is empty. The offsets are the masks of
// 4 and above, ascending, and shuf the mask below 4 when only one is; a
// block sweep reassigns them by role and sets hold again.
func newVecGeom(maskLo, maskHi, lo, hi int) vecGeom {
	var g vecGeom
	amps := 2 // amplitudes per index
	if maskHi != 0 {
		amps = 4
	}
	switch {
	case maskLo >= 4:
		g.off1, g.off2 = maskLo, maskHi
	case maskHi >= 4:
		g.off1, g.shuf = maskHi, maskLo
	case maskHi == 0:
		g.shuf = maskLo
	}
	tiles := 1
	if g.off1 != 0 {
		tiles *= 2
	}
	if g.off2 != 0 {
		tiles *= 2
	}
	per := 4 * tiles / amps // indices per group: 1, 2 or 4
	g.lo = (lo + per - 1) &^ (per - 1)
	g.hi = hi &^ (per - 1)
	if g.hi < g.lo {
		g.hi = g.lo
	}
	g.groups = (g.hi - g.lo) / per
	g.first = (g.lo&^(maskLo-1))<<1 | g.lo&(maskLo-1)
	if maskHi != 0 {
		g.first = (g.first&^(maskHi-1))<<1 | g.first&(maskHi-1)
	}
	g.setHold()
	return g
}

// setHold sets the bits the walk keeps clear from the offsets.
func (g *vecGeom) setHold() { g.hold = g.off1 | g.off2 | 3 }

// tileOffset is where tile o of a group sits relative to its first.
func (g *vecGeom) tileOffset(o int) int {
	return (o&1)*g.off1 + (o>>1)*g.off2
}

// bitOf is 1 when idx has mask's bit set; a mask of 0 has none.
func bitOf(idx, mask int) int {
	if idx&mask != 0 {
		return 1
	}
	return 0
}

// pairCoefs are pairSweepAVX's per-lane coefficients, indexed [unit]
// [output tile][column][re, im][lane]: out = C0·a0 + C1·a1, each a
// complex product, with a0 and a1 the lane's pair. Unit 1 is the tiles at
// off2, the second block of a block kernel whose selecting qubit's mask
// is 4 or more; output tile 1 is the partner at off1 when the gate qubit's
// mask is.
type pairCoefs [2][2][2][2][4]float64

// fill lays out the 2×2s of mats (blockPair's argument order) for a pair
// sweep on gate's mask: a lane uses mats[1] when its amplitude index has
// sel's bit set (a block kernel's selecting qubit; 0 for a 2×2), and the
// row its index's gate bit picks.
func (cf *pairCoefs) fill(mats *[2][8]float64, g *vecGeom, gate, sel int) {
	for u := 0; u < 2; u++ {
		for o := 0; o < 2; o++ {
			for l := 0; l < 4; l++ {
				idx := u*g.off2 + o*g.off1 + l
				m := &mats[bitOf(idx, sel)]
				row := bitOf(idx, gate)
				for col := 0; col < 2; col++ {
					cf[u][o][col][0][l] = m[4*row+2*col]
					cf[u][o][col][1][l] = m[4*row+2*col+1]
				}
			}
		}
	}
}

// denseCoefs are denseSweepAVX's per-lane coefficients, indexed [output
// tile][column][re, im][lane]: the row of m the lane's amplitude takes.
type denseCoefs [4][4][2][4]float64

// phaseCoefs are phaseSweepAVX's per-lane phases, indexed [tile][re,
// im][lane].
type phaseCoefs [4][2][4]float64

// quadRow is the row of a pair kernel's 4×4 that amplitude index idx
// takes: its maskLo bit, plus 2 for its maskHi bit.
func quadRow(idx, maskLo, maskHi int) int {
	return bitOf(idx, maskLo) + 2*bitOf(idx, maskHi)
}

// sweep1QVec is sweep1Q with the whole groups of [lo, hi) in
// pairSweepAVX and the few pairs at either end in sweep1Q.
func sweep1QVec(re, im []float64, m *gates.Split2, stride, lo, hi int) {
	g := newVecGeom(stride, 0, lo, hi)
	if g.groups == 0 {
		sweep1Q(re, im, m, stride, lo, hi)
		return
	}
	mats := [2][8]float64{{m.Re[0][0], m.Im[0][0], m.Re[0][1], m.Im[0][1], m.Re[1][0], m.Im[1][0], m.Re[1][1], m.Im[1][1]}}
	var cf pairCoefs
	cf.fill(&mats, &g, stride, 0) // no selecting qubit: every lane reads mats[0]
	sweep1Q(re, im, m, stride, lo, g.lo)
	pairSweepAVX(re, im, &cf, &g)
	sweep1Q(re, im, m, stride, g.hi, hi)
}

// sweep2QBlockVec is sweep2QBlock with the whole groups of [lo, hi) in
// pairSweepAVX and the few quadruples at either end in sweep2QBlock.
func sweep2QBlockVec(re, im []float64, m *gates.Split4, maskLo, maskHi, offA, offB, lo, hi int) {
	g := newVecGeom(maskLo, maskHi, lo, hi)
	if g.groups == 0 {
		sweep2QBlock(re, im, m, maskLo, maskHi, offA, offB, lo, hi)
		return
	}
	g.off1, g.off2, g.shuf = 0, 0, 0
	if offA >= 4 {
		g.off1 = offA
	} else {
		g.shuf = offA
	}
	if offB >= 4 {
		g.off2 = offB
	}
	g.setHold()
	mats := [2][8]float64{blockMat(m, 0), blockMat(m, 2)}
	var cf pairCoefs
	cf.fill(&mats, &g, offA, offB)
	sweep2QBlock(re, im, m, maskLo, maskHi, offA, offB, lo, g.lo)
	pairSweepAVX(re, im, &cf, &g)
	sweep2QBlock(re, im, m, maskLo, maskHi, offA, offB, g.hi, hi)
}

// sweep2QVec is sweep2Q with the whole groups of [lo, hi) in
// denseSweepAVX and the few quadruples at either end in sweep2Q.
func sweep2QVec(re, im []float64, m *gates.Split4, maskLo, maskHi, lo, hi int) {
	g := newVecGeom(maskLo, maskHi, lo, hi)
	if g.groups == 0 {
		sweep2Q(re, im, m, maskLo, maskHi, lo, hi)
		return
	}
	var cf denseCoefs
	for o := range cf {
		for l := 0; l < 4; l++ {
			row := quadRow(g.tileOffset(o)+l, maskLo, maskHi)
			for col := 0; col < 4; col++ {
				cf[o][col][0][l] = m.Re[row][col]
				cf[o][col][1][l] = m.Im[row][col]
			}
		}
	}
	sweep2Q(re, im, m, maskLo, maskHi, lo, g.lo)
	denseSweepAVX(re, im, &cf, &g)
	sweep2Q(re, im, m, maskLo, maskHi, g.hi, hi)
}

// sweep2QDiagVec is sweep2QDiag with the whole groups of [lo, hi) in
// phaseSweepAVX and the few quadruples at either end in sweep2QDiag.
func sweep2QDiagVec(re, im []float64, dRe, dIm *[4]float64, maskLo, maskHi, lo, hi int) {
	g := newVecGeom(maskLo, maskHi, lo, hi)
	if g.groups == 0 {
		sweep2QDiag(re, im, dRe, dIm, maskLo, maskHi, lo, hi)
		return
	}
	var cf phaseCoefs
	for o := range cf {
		for l := 0; l < 4; l++ {
			row := quadRow(g.tileOffset(o)+l, maskLo, maskHi)
			cf[o][0][l], cf[o][1][l] = dRe[row], dIm[row]
		}
	}
	sweep2QDiag(re, im, dRe, dIm, maskLo, maskHi, lo, g.lo)
	phaseSweepAVX(re, im, &cf, &g)
	sweep2QDiag(re, im, dRe, dIm, maskLo, maskHi, g.hi, hi)
}
