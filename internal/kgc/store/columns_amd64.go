//go:build amd64 && !purego

package store

import "kgeval/internal/cpu"

// transpose4AVX writes dst[k*stride+l] = r_l[k] for k < dim, l < 4. The
// caller guarantees dim readable values behind each row pointer and
// (dim-1)*stride+4 writable values behind dst.
//
//go:noescape
func transpose4AVX(r0, r1, r2, r3 *float64, dim int, dst *float64, stride int)

// columnsAVX transposes the float64 rows of ids, four at a time, into
// buf[k*len(ids)+t] and returns how many ids it placed: len(ids) rounded
// down to a multiple of four, or 0 without AVX. Every pointer handed to the
// assembly comes from a slice expression that has already been bounds
// checked against the table and the buffer, so an out-of-range id or a short
// buffer panics here, in Go.
func (s *Store) columnsAVX(ids []int32, buf []float64) int {
	if !cpu.AVX2 {
		return 0
	}
	n, d := len(ids), s.dim
	n4 := n &^ 3
	for t := 0; t < n4; t += 4 {
		r0 := s.f64[int(ids[t])*d:][:d]
		r1 := s.f64[int(ids[t+1])*d:][:d]
		r2 := s.f64[int(ids[t+2])*d:][:d]
		r3 := s.f64[int(ids[t+3])*d:][:d]
		dst := buf[t : (d-1)*n+t+4]
		transpose4AVX(&r0[0], &r1[0], &r2[0], &r3[0], d, &dst[0], n)
	}
	return n4
}
