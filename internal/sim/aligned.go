package sim

import "unsafe"

// cacheLine is the alignment granted to amplitude planes and scratch
// buffers: one x86/ARM cache line. Aligning the plane base means a
// sweep's contiguous runs start on a line boundary whenever their start
// index is a multiple of 8 floats (every power-of-two stride ≥ 8
// qualifies), so a run never straddles a line at its start. The AVX
// bodies load unaligned and do not rely on this.
const cacheLine = 64

// alignedFloats allocates an n-element float64 slice whose backing array
// starts on a cacheLine boundary. The Go allocator already aligns large
// slabs, but offers no guarantee; this helper over-allocates by at most
// one line and slices forward to the boundary. The returned slice has
// capacity exactly n, so appends cannot silently step onto the unaligned
// prefix. Allocation does not touch the backing pages beyond what the
// runtime itself zeroes, keeping first-touch page placement available to
// the shard workers (see State first-touch notes in the package doc).
func alignedFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	const perLine = cacheLine / 8 // float64s per cache line
	buf := make([]float64, n+perLine-1)
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	off := 0
	if rem := addr % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / 8)
	}
	return buf[off : off+n : off+n]
}
