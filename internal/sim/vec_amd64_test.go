//go:build !purego

package sim

import (
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

// TestVectorBodiesExact holds each AVX body to the Go expression it
// replaces, bit for bit: the wrapper with useAVX set (whole vectors in
// assembly, the tail in Go) against the same wrapper with useAVX clear
// (every element in Go), on misaligned bases, every length from 0 to 70,
// and inputs and matrix entries that include ±0, subnormals and
// products that underflow or overflow. Guard elements around each stream
// must keep their marker.
func TestVectorBodiesExact(t *testing.T) {
	needAVX(t)
	r := rand.New(rand.NewSource(47))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 4; off++ {
			var pm [8]float64
			for i := range pm {
				pm[i] = edgeFloat(r)
			}
			var dm gates.Split4
			for j := 0; j < 4; j++ {
				for c := 0; c < 4; c++ {
					dm.Re[j][c], dm.Im[j][c] = edgeFloat(r), edgeFloat(r)
				}
			}
			pr, pi := edgeFloat(r), edgeFloat(r)

			pair := newVecStreams(r, 4, n, off)
			dense := newVecStreams(r, 8, n, off)
			phase := newVecStreams(r, 2, n, off)
			pairGo, denseGo, phaseGo := pair.clone(), dense.clone(), phase.clone()

			useAVX = true
			pairRun(&pm, pair.stream(0), pair.stream(1), pair.stream(2), pair.stream(3))
			denseRun(&dm, dense.stream(0), dense.stream(1), dense.stream(2), dense.stream(3),
				dense.stream(4), dense.stream(5), dense.stream(6), dense.stream(7))
			phaseRun(pr, pi, phase.stream(0), phase.stream(1))
			useAVX = false
			pairRun(&pm, pairGo.stream(0), pairGo.stream(1), pairGo.stream(2), pairGo.stream(3))
			denseRun(&dm, denseGo.stream(0), denseGo.stream(1), denseGo.stream(2), denseGo.stream(3),
				denseGo.stream(4), denseGo.stream(5), denseGo.stream(6), denseGo.stream(7))
			phaseRun(pr, pi, phaseGo.stream(0), phaseGo.stream(1))

			pair.equalBits(t, "pair", pairGo)
			dense.equalBits(t, "dense", denseGo)
			phase.equalBits(t, "phase", phaseGo)
		}
	}
}

// TestVectorBodiesStopAtWholeVectors calls each assembly body directly on
// streams whose length is not a multiple of 4: it must write exactly the
// first len&^3 elements and leave the rest, and the guards, as they were.
func TestVectorBodiesStopAtWholeVectors(t *testing.T) {
	needAVX(t)
	r := rand.New(rand.NewSource(48))
	var pm [8]float64
	for i := range pm {
		pm[i] = 2*r.Float64() - 1
	}
	var dm gates.Split4
	for j := 0; j < 4; j++ {
		for c := 0; c < 4; c++ {
			dm.Re[j][c], dm.Im[j][c] = 2*r.Float64()-1, 2*r.Float64()-1
		}
	}
	for n := 0; n <= 11; n++ {
		pair := newVecStreams(r, 4, n, 1)
		dense := newVecStreams(r, 8, n, 3)
		phase := newVecStreams(r, 2, n, 2)
		pairGo, denseGo, phaseGo := pair.clone(), dense.clone(), phase.clone()
		v := n &^ 3
		pairRunAVX(&pm, pair.stream(0), pair.stream(1), pair.stream(2), pair.stream(3))
		denseRunAVX(&dm, dense.stream(0), dense.stream(1), dense.stream(2), dense.stream(3),
			dense.stream(4), dense.stream(5), dense.stream(6), dense.stream(7))
		phaseRunAVX(0.6, -0.8, phase.stream(0), phase.stream(1))
		useAVX = false
		pairRun(&pm, pairGo.stream(0)[:v], pairGo.stream(1), pairGo.stream(2), pairGo.stream(3))
		denseRun(&dm, denseGo.stream(0)[:v], denseGo.stream(1), denseGo.stream(2), denseGo.stream(3),
			denseGo.stream(4), denseGo.stream(5), denseGo.stream(6), denseGo.stream(7))
		phaseRun(0.6, -0.8, phaseGo.stream(0)[:v], phaseGo.stream(1))
		useAVX = true
		pair.equalBits(t, "pairRunAVX", pairGo)
		dense.equalBits(t, "denseRunAVX", denseGo)
		phase.equalBits(t, "phaseRunAVX", phaseGo)
	}
}

// vecSweepKernels returns a 2×2 kernel on q and, when q2 > q, one kernel
// of every two-qubit form on the pair (q, q2): the dense and both block
// forms, whose run forms have vector bodies, and the monomial shapes,
// whose run form sweeps its phased fixed rows with the phase body — a
// complex diagonal, a transposition with unit-phase fixed rows, a 3-cycle
// and a transposition beside a phased and a unit-phase fixed row.
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
	var diag, trans, cycle, fixed gates.Matrix4
	for i := 0; i < 4; i++ {
		diag[i][i] = phase()
	}
	trans[0][0], trans[1][2], trans[2][1], trans[3][3] = 1, phase(), phase(), 1
	cycle[0][1], cycle[1][2], cycle[2][0], cycle[3][3] = phase(), phase(), phase(), phase()
	fixed[0][0], fixed[1][1], fixed[2][3], fixed[3][2] = phase(), 1, phase(), phase()
	mats := []gates.Matrix4{dense, randomBlockMatrix(r, false), swapPair(randomBlockMatrix(r, false)), diag, trans, cycle, fixed}
	var st PlanStats
	for _, m := range mats {
		k := kernel{kind: kGate2Q, support: 1<<q | 1<<q2, q: q, q2: q2, m4: m}
		k.finalize2Q(&st)
		ks = append(ks, k)
	}
	if st.Monomial2Q != 4 || st.Block2Q != 2 {
		t.Fatalf("kernel forms: %+v, want 4 monomial and 2 block", st)
	}
	return ks
}

// TestVectorSweepsMatchGo runs every run-form sweep with the vector bodies
// on and with them off — the Go loops at the Go threshold, the path a CPU
// without AVX or a purego build takes — and requires every amplitude's
// bits to agree, at each stride from 1 to 2^14 and on shard grants
// {1, 3, 4, GOMAXPROCS}. Three shards put run starts and run ends at
// arbitrary offsets. The states hold edgeFloat's ±0 and subnormals, so a
// sweep form that multiplies a zero by a unit phase where the other skips
// it (flipping the zero's sign) on only one path fails here.
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
			ref := vec.Clone()
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
