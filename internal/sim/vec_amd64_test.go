//go:build !purego

package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gates"
)

// needAVX skips a test of the vector bodies on a CPU without AVX and
// restores useAVX when the test ends.
func needAVX(t *testing.T) {
	t.Helper()
	if !useAVX {
		t.Skip("CPU without AVX: the vector bodies never run")
	}
	t.Cleanup(func() { useAVX = true })
}

// edgeFloat draws a float that is, one time in four, an edge value: ±0,
// a subnormal, the smallest normal or a value near the overflow edge of a
// product; otherwise uniform in (−1, 1).
func edgeFloat(r *rand.Rand) float64 {
	if r.Intn(4) != 0 {
		return 2*r.Float64() - 1
	}
	edges := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		3 * math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
		0x1p-1022, -0x1p-1022, 0x1p-540, 1, -1, 0x1p500,
	}
	return edges[r.Intn(len(edges))]
}

// vecStreams carves k streams of n floats, each starting off elements
// into its own buffer so bases are misaligned, with guard elements before
// and after that hold a marker no body may write.
type vecStreams struct {
	bufs [][]float64
	off  int
	n    int
}

const vecGuard = 5

func newVecStreams(r *rand.Rand, k, n, off int) *vecStreams {
	v := &vecStreams{off: off, n: n}
	for s := 0; s < k; s++ {
		buf := make([]float64, off+n+vecGuard)
		for i := range buf {
			buf[i] = math.Float64frombits(0x7ff8dead0000beef) // a NaN marker
		}
		for i := 0; i < n; i++ {
			buf[off+i] = edgeFloat(r)
		}
		v.bufs = append(v.bufs, buf)
	}
	return v
}

func (v *vecStreams) stream(s int) []float64 { return v.bufs[s][v.off : v.off+v.n] }

func (v *vecStreams) clone() *vecStreams {
	c := &vecStreams{off: v.off, n: v.n}
	for _, b := range v.bufs {
		c.bufs = append(c.bufs, append([]float64(nil), b...))
	}
	return c
}

// equalBits fails unless every element of every buffer, guards included,
// has the same bits in got and want.
func (v *vecStreams) equalBits(t *testing.T, what string, want *vecStreams) {
	t.Helper()
	for s := range v.bufs {
		for i := range v.bufs[s] {
			g, w := math.Float64bits(v.bufs[s][i]), math.Float64bits(want.bufs[s][i])
			if g != w {
				t.Fatalf("%s n=%d off=%d stream %d element %d: vector %#x (%v) != Go %#x (%v)",
					what, v.n, v.off, s, i-v.off, g, v.bufs[s][i], w, want.bufs[s][i])
			}
		}
	}
}

// vecCase is one vector sweep under test over an n-qubit state: vec is
// the wrapper (whole groups in the AVX body, the ends in Go) and ref the
// Go loop it stands in for, both over [lo, hi) of total indices.
type vecCase struct {
	name           string
	maskLo, maskHi int // the sweep's index expansion; maskHi is 0 for a 2×2
	total          int
	vec, ref       func(re, im []float64, lo, hi int)
}

// vecCases returns every vector sweep on every qubit and pair of an
// n-qubit state: the 2×2, both block forms, the dense 4×4, and the
// diagonal three times: with complex phases, with real phases, and with
// one unit-phase row. Matrix entries and phases are edgeFloat's.
func vecCases(r *rand.Rand, n int) []vecCase {
	dim := 1 << n
	split4 := func() *gates.Split4 {
		var m gates.Split4
		for j := 0; j < 4; j++ {
			for c := 0; c < 4; c++ {
				m.Re[j][c], m.Im[j][c] = edgeFloat(r), edgeFloat(r)
			}
		}
		return &m
	}
	var cs []vecCase
	for q := 0; q < n; q++ {
		var m gates.Split2
		for j := 0; j < 2; j++ {
			for c := 0; c < 2; c++ {
				m.Re[j][c], m.Im[j][c] = edgeFloat(r), edgeFloat(r)
			}
		}
		s := 1 << q
		cs = append(cs, vecCase{
			name: fmt.Sprintf("2x2 q=%d", q), maskLo: s, total: dim / 2,
			vec: func(re, im []float64, lo, hi int) { sweep1QVec(re, im, &m, s, lo, hi) },
			ref: func(re, im []float64, lo, hi int) { sweep1Q(re, im, &m, s, lo, hi) },
		})
	}
	for q := 0; q < n; q++ {
		for q2 := q + 1; q2 < n; q2++ {
			lo, hi := 1<<q, 1<<q2
			pair := func(form string) vecCase {
				return vecCase{name: fmt.Sprintf("%s (%d,%d)", form, q, q2), maskLo: lo, maskHi: hi, total: dim / 4}
			}
			for _, offs := range [][2]int{{lo, hi}, {hi, lo}} {
				m, offA, offB := split4(), offs[0], offs[1]
				c := pair(fmt.Sprintf("block gate=%d sel=%d", offA, offB))
				c.vec = func(re, im []float64, a, b int) { sweep2QBlockVec(re, im, m, lo, hi, offA, offB, a, b) }
				c.ref = func(re, im []float64, a, b int) { sweep2QBlock(re, im, m, lo, hi, offA, offB, a, b) }
				cs = append(cs, c)
			}
			m := split4()
			c := pair("dense")
			c.vec = func(re, im []float64, a, b int) { sweep2QVec(re, im, m, lo, hi, a, b) }
			c.ref = func(re, im []float64, a, b int) { sweep2Q(re, im, m, lo, hi, a, b) }
			cs = append(cs, c)
			for _, shape := range []string{"diag", "real diag", "diag unit row"} {
				var dRe, dIm [4]float64
				for k := range dRe {
					dRe[k], dIm[k] = edgeFloat(r), edgeFloat(r)
				}
				name := shape
				switch shape {
				case "real diag":
					dIm = [4]float64{}
				case "diag unit row":
					u := r.Intn(4)
					dRe[u], dIm[u] = 1, 0
					name = fmt.Sprintf("diag unit row %d", u)
				}
				c := pair(name)
				c.vec = func(re, im []float64, a, b int) { sweep2QDiagVec(re, im, &dRe, &dIm, lo, hi, a, b) }
				c.ref = func(re, im []float64, a, b int) { sweep2QDiag(re, im, &dRe, &dIm, lo, hi, a, b) }
				cs = append(cs, c)
			}
		}
	}
	return cs
}

// checkVecCase runs c's wrapper and its Go loop over [lo, hi) on the same
// state, planes carved off elements into guarded buffers, and requires
// every element's bits to agree, guards included.
func checkVecCase(t *testing.T, r *rand.Rand, c vecCase, n, off, lo, hi int) {
	t.Helper()
	vec := newVecStreams(r, 2, 1<<n, off)
	ref := vec.clone()
	c.vec(vec.stream(0), vec.stream(1), lo, hi)
	c.ref(ref.stream(0), ref.stream(1), lo, hi)
	vec.equalBits(t, fmt.Sprintf("%s [%d, %d)", c.name, lo, hi), ref)
}

// TestVectorBodiesExact holds each vector sweep — the 2×2, both block
// forms, the dense 4×4 and the diagonal, at every stride of a 9-qubit
// state, strides 1 and 2 included — to the Go loop it replaces, bit for
// bit: every range of 0 to 70 indices at a random start, the three ranges
// of a three-shard split, plane bases off by 0–3 elements, and states,
// matrices and phases that include ±0, subnormals and products that
// underflow or overflow. A diagonal with real phases or with a unit-phase
// row must equal the Go loop, which multiplies every row by its full
// complex phase. Guard elements around each plane must keep their marker.
func TestVectorBodiesExact(t *testing.T) {
	needAVX(t)
	const n = 9
	r := rand.New(rand.NewSource(47))
	for _, c := range vecCases(r, n) {
		for cnt := 0; cnt <= 70; cnt++ {
			lo := r.Intn(c.total - cnt + 1)
			checkVecCase(t, r, c, n, cnt%4, lo, lo+cnt)
		}
		for w := 0; w < 3; w++ {
			lo, hi := shardRange(c.total, 3, w)
			checkVecCase(t, r, c, n, w+1, lo, hi)
		}
	}
}

// TestVectorBodiesStopAtWholeVectors gives each vector sweep a range of
// whole tile groups, so that the AVX body does all of the work: it must
// write exactly the amplitudes of that range, as the Go loop does, and
// leave every other amplitude, and the guards, as they were.
func TestVectorBodiesStopAtWholeVectors(t *testing.T) {
	needAVX(t)
	const n = 9
	r := rand.New(rand.NewSource(48))
	for _, c := range vecCases(r, n) {
		for trial := 0; trial < 8; trial++ {
			lo := r.Intn(c.total)
			g := newVecGeom(c.maskLo, c.maskHi, lo, lo+r.Intn(c.total-lo+1))
			if w := newVecGeom(c.maskLo, c.maskHi, g.lo, g.hi); w.lo != g.lo || w.hi != g.hi {
				t.Fatalf("%s: [%d, %d) is not whole groups", c.name, g.lo, g.hi)
			}
			checkVecCase(t, r, c, n, trial%4, g.lo, g.hi)
		}
	}
}

// TestQAOAPlanVectorMatchesGo executes a served 20-qubit QAOA job's whole
// plan (maxCutQAOA(1, 20, 30, 2): 2×2, block, dense and diagonal
// kernels on low and high pairs) with the vector bodies and without, on
// one, two and three shards, and requires every amplitude's bits to agree.
func TestQAOAPlanVectorMatchesGo(t *testing.T) {
	needAVX(t)
	pl, err := Compile(maxCutQAOA(1, 20, 30, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3} {
		vec, ref := mustState(t, 20), mustState(t, 20)
		useAVX = true
		if err := pl.Execute(vec, shards); err != nil {
			t.Fatal(err)
		}
		useAVX = false
		err := pl.Execute(ref, shards)
		useAVX = true
		if err != nil {
			t.Fatal(err)
		}
		for i := range vec.re {
			if math.Float64bits(vec.re[i]) != math.Float64bits(ref.re[i]) ||
				math.Float64bits(vec.im[i]) != math.Float64bits(ref.im[i]) {
				t.Fatalf("shards=%d amp[%d]: vector (%v, %v) != Go (%v, %v)",
					shards, i, vec.re[i], vec.im[i], ref.re[i], ref.im[i])
			}
		}
	}
}

// vecSweepKernels returns a 2×2 kernel on q and, when q2 > q, one kernel
// of every two-qubit form on the pair (q, q2), each finalized from its
// matrix: the dense and both block forms; the diagonal with complex
// phases, with real phases (CZ·Z-style) and with unit-phase rows; and the
// permutation shapes, which finalize as block or dense: a transposition
// with unit-phase fixed rows (a phased SWAP), a 3-cycle, and a
// transposition beside a phased and a unit-phase fixed row (a phased CX).
func vecSweepKernels(t *testing.T, r *rand.Rand, q, q2 int) []kernel {
	t.Helper()
	cplx := func() complex128 { return complex(2*r.Float64()-1, 2*r.Float64()-1) }
	phase := func() complex128 {
		a := 2 * math.Pi * r.Float64()
		return complex(math.Cos(a), math.Sin(a))
	}
	var m2 gates.Matrix2
	for i := range m2 {
		for j := range m2[i] {
			m2[i][j] = cplx()
		}
	}
	ks := []kernel{{kind: kGate1Q, support: 1 << q, q: q, m: m2, ms: m2.Split()}}
	if q2 <= q {
		return ks
	}
	var dense gates.Matrix4
	for i := range dense {
		for j := range dense[i] {
			dense[i][j] = cplx()
		}
	}
	var diag, realDiag, unitDiag, trans, cycle, fixed gates.Matrix4
	for i := 0; i < 4; i++ {
		diag[i][i] = phase()
		realDiag[i][i] = complex(float64(1-2*r.Intn(2)), 0)
	}
	unitDiag[0][0], unitDiag[1][1], unitDiag[2][2], unitDiag[3][3] = 1, phase(), 1, phase()
	trans[0][0], trans[1][2], trans[2][1], trans[3][3] = 1, phase(), phase(), 1
	cycle[0][1], cycle[1][2], cycle[2][0], cycle[3][3] = phase(), phase(), phase(), phase()
	fixed[0][0], fixed[1][1], fixed[2][3], fixed[3][2] = phase(), 1, phase(), phase()
	for _, c := range []struct {
		name string
		m    gates.Matrix4
		want pairForm
	}{
		{"dense", dense, pairDense},
		{"block-lo", randomBlockMatrix(r, false), pairBlockLo},
		{"block-hi", swapPair(randomBlockMatrix(r, false)), pairBlockHi},
		{"diag", diag, pairDiag},
		{"real diag", realDiag, pairDiag},
		{"unit-row diag", unitDiag, pairDiag},
		{"transposition", trans, pairDense},
		{"3-cycle", cycle, pairDense},
		{"fixed rows", fixed, pairBlockLo},
	} {
		k := kernel{kind: kGate2Q, support: 1<<q | 1<<q2, q: q, q2: q2, m4: c.m}
		var st PlanStats
		k.finalize2Q(&st)
		if k.form != c.want {
			t.Fatalf("%s kernel finalized to form %d, want %d", c.name, k.form, c.want)
		}
		ks = append(ks, k)
	}
	return ks
}

// TestVectorSweepsMatchGo runs every kernel vecSweepKernels builds with
// the vector bodies on and with them off — the Go loops, the path a CPU
// without AVX or a purego build takes — and requires every amplitude's
// bits to agree, at each stride from 1 to 2^14 and on shard grants
// {1, 3, 4, GOMAXPROCS}. Three shards put range starts and ends at
// arbitrary offsets. The states hold edgeFloat's ±0 and subnormals, so a
// body that multiplies a zero by a unit phase where the Go loop skips it,
// or the other way round, flips the zero's sign and fails here.
func TestVectorSweepsMatchGo(t *testing.T) {
	needAVX(t)
	const n = 15
	r := rand.New(rand.NewSource(49))
	var ks []kernel
	for q := 0; q < n; q++ {
		ks = append(ks, vecSweepKernels(t, r, q, min(q+1, n-1))...)
		if q+1 < n-1 {
			ks = append(ks, vecSweepKernels(t, r, q, n-1)[1:]...)
		}
	}
	for ki, k := range ks {
		pl := &Plan{n: n, kernels: []kernel{k}}
		for _, shards := range []int{1, 3, 4, runtime.GOMAXPROCS(0)} {
			vec := mustState(t, n)
			for i := range vec.re {
				vec.re[i], vec.im[i] = edgeFloat(r), edgeFloat(r)
			}
			ref := cloneState(vec)
			useAVX = true
			if err := pl.Execute(vec, shards); err != nil {
				t.Fatal(err)
			}
			useAVX = false
			err := pl.Execute(ref, shards)
			useAVX = true
			if err != nil {
				t.Fatal(err)
			}
			for i := range vec.re {
				if math.Float64bits(vec.re[i]) != math.Float64bits(ref.re[i]) ||
					math.Float64bits(vec.im[i]) != math.Float64bits(ref.im[i]) {
					t.Fatalf("qubits (%d,%d) kernel %d (kind %d form %d) shards=%d amp[%d]: vector (%v, %v) != Go (%v, %v)",
						k.q, k.q2, ki, k.kind, k.form, shards, i, vec.re[i], vec.im[i], ref.re[i], ref.im[i])
				}
			}
		}
	}
}
