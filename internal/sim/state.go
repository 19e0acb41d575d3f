package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync"

	"repro/internal/gates"
)

// parallelThreshold is the sweep size above which one-shot gate sweeps and
// reductions fan out to worker goroutines. Below it, goroutine overhead
// dominates.
const parallelThreshold = 1 << 13

// MaxQubits bounds state allocation (2^26 amplitudes = 1 GiB).
const MaxQubits = 26

// planes bundles the two amplitude planes of the structure-of-arrays
// layout: amplitude k is complex(re[k], im[k]). Splitting the planes lets
// every hot sweep run as straight-line float64 arithmetic over two
// contiguous streams — the form the compiler turns into much tighter code
// than []complex128 streaming — while Amplitude/Probability stay the
// external contract.
type planes struct {
	re, im []float64
}

// State is an n-qubit statevector. Qubit 0 is the least significant bit of
// the basis index: |q_{n-1} … q_1 q_0⟩ ↔ index Σ q_i 2^i. Amplitudes are
// stored as split real/imaginary planes (structure of arrays), each
// 64-byte aligned; see the package doc's amplitude-layout section.
type State struct {
	n int
	// re and im are the split amplitude planes, each of length 2^n and
	// cache-line aligned via alignedFloats.
	re, im []float64
	// scratch is the state-owned staging buffer ApplyPermute, ApplyInit
	// and the corresponding plan kernels reuse instead of allocating a
	// full 2^n copy per call. Lazily allocated.
	scratch planes
	// noParallel pins every sweep and reduction on this state to the
	// caller's goroutine. The trajectory engine sets it on states owned by
	// its shot workers: with W workers each fanning a gate sweep out to
	// GOMAXPROCS goroutines, a single RunNoisy would otherwise run
	// W×GOMAXPROCS sweep goroutines at once.
	noParallel bool
}

// NewState returns |0…0⟩ on n qubits.
func NewState(n int) (*State, error) {
	s, err := newStateUninit(n)
	if err != nil {
		return nil, err
	}
	s.re[0] = 1
	return s, nil
}

// newStateUninit allocates the aligned planes without setting any
// amplitude. The planes are logically zero (Go allocation guarantees it)
// but their pages may be untouched; Runner.reset first-touches them on the
// shard workers.
func newStateUninit(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("sim: qubit count %d out of [1,%d]", n, MaxQubits)
	}
	dim := 1 << uint(n)
	return &State{n: n, re: alignedFloats(dim), im: alignedFloats(dim)}, nil
}

// NumQubits returns n.
func (s *State) NumQubits() int { return s.n }

// Dim returns 2^n.
func (s *State) Dim() int { return len(s.re) }

// Amplitude returns the amplitude of basis state k.
func (s *State) Amplitude(k uint64) complex128 {
	return complex(s.re[k], s.im[k])
}

// Probability returns |amp_k|².
func (s *State) Probability(k uint64) float64 {
	return s.re[k]*s.re[k] + s.im[k]*s.im[k]
}

// Norm returns Σ|amp|², which must stay 1 under unitary evolution. The
// reduction parallelizes over shards for large states.
func (s *State) Norm() float64 {
	re, im := s.re, s.im
	return s.psum(len(re), func(lo, hi int) float64 {
		total := 0.0
		rr, ii := re[lo:hi], im[lo:hi:hi]
		for k := range rr {
			total += rr[k]*rr[k] + ii[k]*ii[k]
		}
		return total
	})
}

// Clone returns a deep copy (without the scratch buffer). The serial-sweep
// pin carries over: a clone made by a trajectory shot worker must not
// regain nested sweep parallelism, or W workers would again fan out
// W×GOMAXPROCS sweep goroutines.
func (s *State) Clone() *State {
	cp := &State{
		n:          s.n,
		re:         alignedFloats(len(s.re)),
		im:         alignedFloats(len(s.im)),
		noParallel: s.noParallel,
	}
	copy(cp.re, s.re)
	copy(cp.im, s.im)
	return cp
}

// scratchPlanes returns the lazily allocated full-size staging planes.
func (s *State) scratchPlanes() planes {
	if s.scratch.re == nil {
		s.scratch = planes{re: alignedFloats(len(s.re)), im: alignedFloats(len(s.im))}
	}
	return s.scratch
}

// pfor runs body over [0, n), fanning out for large sweeps unless the
// state is pinned serial (trajectory shot workers).
func (s *State) pfor(n int, body func(lo, hi int)) {
	if s.noParallel {
		body(0, n)
		return
	}
	parallelFor(n, body)
}

// psum is the reduction counterpart of pfor.
func (s *State) psum(n int, f func(lo, hi int) float64) float64 {
	if s.noParallel {
		return f(0, n)
	}
	return parallelSum(n, f)
}

// parallelFor splits [0, n) across workers when n is large. It is the
// one-shot fork-join used by the direct State methods; plan execution uses
// the persistent shard pool instead.
func parallelFor(n int, body func(lo, hi int)) {
	if n < parallelThreshold {
		body(0, n)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := shardRange(n, workers, w)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Apply1 applies a one-qubit unitary to qubit q, iterating the 2^(n-1)
// amplitude pairs directly.
func (s *State) Apply1(m gates.Matrix2, q int) error {
	if q < 0 || q >= s.n {
		return fmt.Errorf("sim: qubit %d out of [0,%d)", q, s.n)
	}
	stride := 1 << uint(q)
	ms := m.Split()
	re, im := s.re, s.im
	s.pfor(len(re)/2, func(lo, hi int) {
		sweep1QAuto(re, im, &ms, stride, lo, hi)
	})
	return nil
}

// Apply2 applies a two-qubit unitary to the pair (q0, q1): local basis bit
// 0 is q0's value and bit 1 is q1's. It is the direct-path counterpart of
// the plan's dense 4×4 kernel, sweeping the 2^(n-2) amplitude quadruples.
func (s *State) Apply2(m gates.Matrix4, q0, q1 int) error {
	if err := s.checkDistinct(q0, q1); err != nil {
		return err
	}
	if q0 > q1 {
		// Reorder to ascending qubit positions by conjugating with SWAP:
		// permute local indices 1 and 2 in both rows and columns.
		perm := [4]int{0, 2, 1, 3}
		var sm gates.Matrix4
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				sm[i][j] = m[perm[i]][perm[j]]
			}
		}
		m = sm
		q0, q1 = q1, q0
	}
	maskLo, maskHi := 1<<q0, 1<<q1
	ms := m.Split()
	re, im := s.re, s.im
	s.pfor(len(re)/4, func(lo, hi int) {
		sweep2QAuto(re, im, &ms, maskLo, maskHi, lo, hi)
	})
	return nil
}

// applyCtrlPerm sweeps the subspace pair exchange shared by CX, SWAP, CCX
// and CSWAP: ones lists bits constrained to 1, zeros bits constrained to
// 0, flip exchanges the amplitude pair.
func (s *State) applyCtrlPerm(ones, zeros []int, flip int) error {
	if err := s.checkDistinct(append(append([]int(nil), ones...), zeros...)...); err != nil {
		return err
	}
	inserts := makeInserts(ones, zeros)
	re, im := s.re, s.im
	s.pfor(len(re)>>len(inserts), func(lo, hi int) {
		sweepCtrlPerm(re, im, inserts, flip, lo, hi)
	})
	return nil
}

// ApplyCX applies a controlled-X with the given control and target.
func (s *State) ApplyCX(ctrl, tgt int) error {
	return s.applyCtrlPerm([]int{ctrl}, []int{tgt}, 1<<tgt)
}

// ApplyCZ applies a controlled-Z.
func (s *State) ApplyCZ(a1, a2 int) error {
	return s.applyCtrlPhase([]int{a1, a2}, -1)
}

// ApplyCP applies a controlled phase of angle lambda.
func (s *State) ApplyCP(lambda float64, a1, a2 int) error {
	return s.applyCtrlPhase([]int{a1, a2}, cmplx.Exp(complex(0, lambda)))
}

// applyCtrlPhase multiplies ph onto the subspace with every listed qubit
// set, visiting only those 2^(n-k) amplitudes.
func (s *State) applyCtrlPhase(qubits []int, ph complex128) error {
	if err := s.checkDistinct(qubits...); err != nil {
		return err
	}
	inserts := makeInserts(qubits, nil)
	re, im := s.re, s.im
	s.pfor(len(re)>>len(inserts), func(lo, hi int) {
		sweepCtrlPhase(re, im, inserts, real(ph), imag(ph), lo, hi)
	})
	return nil
}

// ApplySwap swaps two qubits.
func (s *State) ApplySwap(q1, q2 int) error {
	return s.applyCtrlPerm([]int{q1}, []int{q2}, 1<<q1|1<<q2)
}

// ApplyCCX applies a Toffoli gate.
func (s *State) ApplyCCX(c1, c2, tgt int) error {
	return s.applyCtrlPerm([]int{c1, c2}, []int{tgt}, 1<<tgt)
}

// ApplyCSwap applies a Fredkin gate.
func (s *State) ApplyCSwap(ctrl, q1, q2 int) error {
	return s.applyCtrlPerm([]int{ctrl, q1}, []int{q2}, 1<<q1|1<<q2)
}

// ApplyPermute applies a basis-state permutation over the listed qubits:
// local index ℓ (bit k of ℓ = value of qubits[k]) maps to perm[ℓ]. The
// staging copy lives in the state-owned scratch buffer, reused across
// calls.
func (s *State) ApplyPermute(qubits []int, perm []uint64) error {
	nq := len(qubits)
	if len(perm) != 1<<uint(nq) {
		return fmt.Errorf("sim: permutation table size %d != 2^%d", len(perm), nq)
	}
	if err := s.checkDistinct(qubits...); err != nil {
		return err
	}
	src := s.scratchPlanes()
	re, im := s.re, s.im
	masks := qubitMasks(qubits)
	s.pfor(len(re), func(lo, hi int) {
		copy(src.re[lo:hi], re[lo:hi])
		copy(src.im[lo:hi], im[lo:hi])
	})
	s.pfor(len(re), func(lo, hi int) {
		sweepPermute(re, im, src.re, src.im, masks, perm, lo, hi)
	})
	return nil
}

// ApplyInit initializes the listed qubits to the given local state. The
// listed qubits must currently be in |0…0⟩ (i.e. every amplitude with any
// of those bits set must vanish); this keeps initialization unitary-free
// but well-defined mid-circuit.
func (s *State) ApplyInit(qubits []int, amps []complex128) error {
	nq := len(qubits)
	if len(amps) != 1<<uint(nq) {
		return fmt.Errorf("sim: init state size %d != 2^%d", len(amps), nq)
	}
	if err := s.checkDistinct(qubits...); err != nil {
		return err
	}
	norm := 0.0
	for _, a := range amps {
		norm += real(a)*real(a) + imag(a)*imag(a)
	}
	if math.Abs(norm-1) > 1e-9 {
		return fmt.Errorf("sim: init state not normalized (norm² = %v)", norm)
	}
	masks := qubitMasks(qubits)
	anyMask := qubitMask(qubits)
	for i := range s.re {
		if i&anyMask != 0 && cmplx.Abs(s.Amplitude(uint64(i))) > 1e-12 {
			return fmt.Errorf("sim: init target qubits not in |0…0⟩ (amplitude at %d)", i)
		}
	}
	ampRe, ampIm := splitComplexSlice(amps)
	src := s.scratchPlanes()
	re, im := s.re, s.im
	s.pfor(len(re), func(lo, hi int) {
		copy(src.re[lo:hi], re[lo:hi])
		copy(src.im[lo:hi], im[lo:hi])
	})
	s.pfor(len(re), func(lo, hi int) {
		sweepInit(re, im, src.re, src.im, masks, anyMask, ampRe, ampIm, lo, hi)
	})
	return nil
}

// ApplyDiagonal multiplies each amplitude by the phase selected by the
// local index over the listed qubits (indexing as in ApplyPermute).
func (s *State) ApplyDiagonal(qubits []int, phases []complex128) error {
	nq := len(qubits)
	if len(phases) != 1<<uint(nq) {
		return fmt.Errorf("sim: diagonal table size %d != 2^%d", len(phases), nq)
	}
	if err := s.checkDistinct(qubits...); err != nil {
		return err
	}
	masks := qubitMasks(qubits)
	phRe, phIm := splitComplexSlice(phases)
	re, im := s.re, s.im
	s.pfor(len(re), func(lo, hi int) {
		sweepDiag(re, im, masks, phRe, phIm, lo, hi)
	})
	return nil
}

// splitComplexSlice decomposes a complex table into its real and
// imaginary planes (the compile-time form the sweep kernels consume).
func splitComplexSlice(vs []complex128) (re, im []float64) {
	re = alignedFloats(len(vs))
	im = alignedFloats(len(vs))
	for i, v := range vs {
		re[i], im[i] = real(v), imag(v)
	}
	return re, im
}

func (s *State) checkDistinct(qs ...int) error {
	for i, q := range qs {
		if q < 0 || q >= s.n {
			return fmt.Errorf("sim: qubit %d out of [0,%d)", q, s.n)
		}
		for j := 0; j < i; j++ {
			if qs[j] == q {
				return fmt.Errorf("sim: duplicate qubit %d", q)
			}
		}
	}
	return nil
}

// ExpectationDiagonal returns Σ_k |amp_k|² f(k) for a diagonal observable
// f over basis indices — the QAOA expected-cut evaluator. The reduction
// parallelizes over shards for large states, so f must be safe for
// concurrent calls.
func (s *State) ExpectationDiagonal(f func(uint64) float64) float64 {
	re, im := s.re, s.im
	return s.psum(len(re), func(lo, hi int) float64 {
		total := 0.0
		for k := lo; k < hi; k++ {
			p := re[k]*re[k] + im[k]*im[k]
			if p > 0 {
				total += p * f(uint64(k))
			}
		}
		return total
	})
}

// Probabilities returns the full Born distribution. The slice is freshly
// allocated.
func (s *State) Probabilities() []float64 {
	re, im := s.re, s.im
	ps := make([]float64, len(re))
	s.pfor(len(re), func(lo, hi int) {
		rr, ii := re[lo:hi], im[lo:hi:hi]
		out := ps[lo:hi:hi]
		for i := range rr {
			out[i] = rr[i]*rr[i] + ii[i]*ii[i]
		}
	})
	return ps
}
