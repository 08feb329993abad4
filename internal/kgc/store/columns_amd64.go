//go:build amd64 && !purego

package store

import "kgeval/internal/cpu"

// transpose4AVX writes dst[k*stride+l] = r_l[k] for k < dim, l < 4. The
// caller guarantees dim readable values behind each row pointer and
// (dim-1)*stride+4 writable values behind dst.
//
//go:noescape
func transpose4AVX(r0, r1, r2, r3 *float64, dim int, dst *float64, stride int)

// transpose4Cvt is transpose4AVX with every value rounded to float32 after
// the transpose, dst[k*stride+l] = float32(r_l[k]), that returns the largest
// |r_l[k]| of the float64 values that is a number.
//
//go:noescape
func transpose4Cvt(r0, r1, r2, r3 *float64, dim int, dst *float32, stride int) (maxAbs float64)

// columnsAVX transposes the float64 rows of ids, four at a time, into
// buf[k*len(ids)+t] and returns how many ids it placed — len(ids) rounded
// down to a multiple of four, or 0 without AVX. Every pointer handed to the
// assembly comes from a slice expression that has already been bounds
// checked against the table and the buffer, so an out-of-range id or a
// short buffer panics here, in Go.
func (s *Store) columnsAVX(ids []int32, buf []float64) (placed int) {
	if !cpu.AVX2 {
		return 0
	}
	n, d := len(ids), s.dim
	n4 := n &^ 3
	for t := 0; t < n4; t += 4 {
		r0, r1, r2, r3 := s.rows4(ids[t:])
		transpose4AVX(r0, r1, r2, r3, d, &buf[t : (d-1)*n+t+4][0], n)
	}
	return n4
}

// columns32AVX is columnsAVX for TileColumns32: the rows of ids, four at a
// time, into buf[k*stride+t] as float32, with the same bounds checks in Go.
func (s *Store) columns32AVX(ids []int32, stride int, buf []float32) (placed int, maxAbs float64) {
	if !cpu.AVX2 {
		return 0, 0
	}
	n, d := len(ids), s.dim
	n4 := n &^ 3
	for t := 0; t < n4; t += 4 {
		r0, r1, r2, r3 := s.rows4(ids[t:])
		maxAbs = max(maxAbs, transpose4Cvt(r0, r1, r2, r3, d, &buf[t : (d-1)*stride+t+4][0], stride))
	}
	return n4, maxAbs
}

// rows4 points at the table rows of ids[0:4], each bounds checked.
func (s *Store) rows4(ids []int32) (r0, r1, r2, r3 *float64) {
	d := s.dim
	return &s.f64[int(ids[0])*d:][:d][0], &s.f64[int(ids[1])*d:][:d][0],
		&s.f64[int(ids[2])*d:][:d][0], &s.f64[int(ids[3])*d:][:d][0]
}
