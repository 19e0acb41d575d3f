package sim

import "fmt"

// parallelThreshold is the index-space size from which an automatic shard
// count uses more than one goroutine. Below it, synchronization dominates.
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
	// scratch is the state-owned staging buffer the permute and init
	// kernels reuse instead of allocating a full 2^n copy per sweep.
	// Lazily allocated.
	scratch planes
}

// NewState returns |0…0⟩ on n qubits: a closed runner's state, cleared,
// when one of that width is spare, otherwise fresh planes.
func NewState(n int) (*State, error) {
	if s := spareState(n); s != nil {
		clear(s.re)
		clear(s.im)
		s.re[0] = 1
		return s, nil
	}
	s, err := newStateUninit(n)
	if err != nil {
		return nil, err
	}
	s.re[0] = 1
	return s, nil
}

// spareState takes the state out of a spare arena of n qubits, handing
// the rest of the arena back, or returns nil.
func spareState(n int) *State {
	if n < 1 || n > MaxQubits {
		return nil
	}
	a := spareArena(n)
	if a == nil {
		return nil
	}
	s := a.st
	a.st = nil
	if a.cdf != nil {
		spareArenas[n].Put(a)
	}
	return s
}

// newStateUninit allocates the aligned planes without setting any
// amplitude. The planes are logically zero (Go allocation guarantees it)
// but their pages may be untouched; runner.reset first-touches them on the
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

// scratchPlanes returns the lazily allocated full-size staging planes.
func (s *State) scratchPlanes() planes {
	if s.scratch.re == nil {
		s.scratch = planes{re: alignedFloats(len(s.re)), im: alignedFloats(len(s.im))}
	}
	return s.scratch
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
