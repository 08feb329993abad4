// Package store provides a columnar embedding store: dense row-major
// embedding matrices held at one of three precisions — float64 (the
// bit-exact reference), float32, and int8 with per-dimension-block
// scale/zero-point quantization — behind one row-access API.
//
// The store exists for the evaluation hot path: batch kernels walk a
// candidate pool one kernel tile at a time and ask for that tile's rows as
// float64, in the layout they read, in the caller's small, cache-resident
// buffer. The vector kernels ask TileColumns, which lays the tile out
// candidate-minor; the Go kernels ask Gather, which lays it out row by row.
// Both read every row through one strided row reader, scatterRow, which
// copies (Float64) or dequantizes (Float32, Int8) it; only whole groups of
// four Float64 rows take another road, an AVX2 transpose with the same
// values. Nothing is handed out in place. Reduced precision shrinks the
// table a pass reads (2× for float32, 4× for int8 with its block
// parameters) and so raises how much of it stays cached between tiles; the
// kernel behind the tile is the same one at every precision, and what it
// costs is a bounded per-value dequantization error.
package store

import (
	"fmt"

	"kgeval/internal/faults"
)

// Precision selects the storage format of a Store.
type Precision uint8

const (
	// Float64 stores rows as raw float64 — the bit-exact reference. A
	// Float64 store built from an existing []float64 aliases it (zero copy).
	Float64 Precision = iota
	// Float32 stores rows as float32, halving footprint for ~1e-7 relative
	// per-value error.
	Float32
	// Int8 stores rows as int8 with one scale/zero-point pair per
	// BlockDim-dimension block of each row (affine quantization). Per-value
	// error is bounded by half a quantization step: (max−min)/510 over the
	// block.
	Int8
)

// String returns the wire name: "float64", "float32" or "int8".
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	}
	return fmt.Sprintf("Precision(%d)", uint8(p))
}

// ParsePrecision maps a wire name to its Precision. The empty string is
// Float64, so callers can treat "no precision requested" as the reference.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "f64":
		return Float64, nil
	case "float32", "f32":
		return Float32, nil
	case "int8", "i8":
		return Int8, nil
	}
	return 0, fmt.Errorf("store: unknown precision %q (want float64, float32 or int8)", s)
}

// BlockDim is the number of row dimensions sharing one scale/zero-point
// pair under Int8. Smaller blocks track local value ranges more tightly
// (lower error) at 8 bytes of quantization metadata per block per row.
const BlockDim = 8

// Store is a read-only dense rows×dim embedding matrix at one precision.
// All methods are safe for concurrent use.
type Store struct {
	dim  int
	prec Precision

	f64 []float64
	f32 []float32
	i8  []int8
	// scale/zero hold rows×nblocks quantization parameters (Int8 only):
	// value ≈ zero + scale·(q+128), q ∈ [−128, 127].
	scale []float32
	zero  []float32
}

// nblocks returns the per-row quantization block count.
func (s *Store) nblocks() int { return (s.dim + BlockDim - 1) / BlockDim }

// NBlocks returns the number of BlockDim-dimension quantization blocks per
// row: ⌈Dim/BlockDim⌉. It sizes the scale/zero buffers for GatherQuantized
// and is meaningful for any precision (Int8 is the only one that stores
// per-block parameters).
func (s *Store) NBlocks() int { return s.nblocks() }

// FromRows builds a store over a rows×dim row-major matrix. Float64 aliases
// data (zero copy — the store is a view of the caller's weights); Float32
// and Int8 snapshot a converted copy.
func FromRows(data []float64, rows, dim int, p Precision) (*Store, error) {
	// Chaos hook: simulate an allocation/conversion failure while building
	// an entity store mid-evaluation.
	if err := faults.Hit(faults.SiteStoreBuild); err != nil {
		return nil, err
	}
	if dim <= 0 || rows < 0 || len(data) != rows*dim {
		return nil, fmt.Errorf("store: shape %d×%d does not match %d values", rows, dim, len(data))
	}
	s := &Store{dim: dim, prec: p}
	switch p {
	case Float64:
		s.f64 = data
	case Float32:
		s.f32 = make([]float32, len(data))
		for i, v := range data {
			s.f32[i] = float32(v)
		}
	case Int8:
		s.i8 = make([]int8, len(data))
		nb := s.nblocks()
		s.scale = make([]float32, rows*nb)
		s.zero = make([]float32, rows*nb)
		for r := 0; r < rows; r++ {
			quantizeRow(data[r*dim:(r+1)*dim], s.i8[r*dim:(r+1)*dim],
				s.scale[r*nb:(r+1)*nb], s.zero[r*nb:(r+1)*nb])
		}
	default:
		return nil, fmt.Errorf("store: unknown precision %d", p)
	}
	return s, nil
}

// CopyBytes is what FromRows allocates for a rows×dim store at precision p:
// nothing at Float64, which aliases the caller's table, and the converted
// copy otherwise — 4 bytes a value at Float32; 1 a value plus a float32 scale
// and zero per block at Int8.
func CopyBytes(rows, dim int, p Precision) int64 {
	n := int64(rows) * int64(dim)
	switch p {
	case Float32:
		return 4 * n
	case Int8:
		return n + 8*int64(rows)*int64((dim+BlockDim-1)/BlockDim)
	}
	return 0
}

// quantizeRow quantizes one row into int8 blocks with affine
// scale/zero-point per BlockDim dims: q = round((v−min)/step) − 128 with
// step = (max−min)/255, dequantized as min + step·(q+128).
func quantizeRow(src []float64, dst []int8, scale, zero []float32) {
	for b := 0; b < len(scale); b++ {
		lo := b * BlockDim
		hi := lo + BlockDim
		if hi > len(src) {
			hi = len(src)
		}
		mn, mx := src[lo], src[lo]
		for _, v := range src[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		step := (mx - mn) / 255
		scale[b] = float32(step)
		zero[b] = float32(mn)
		// Quantize against the float32-rounded parameters actually stored,
		// so the error bound holds for what Gather will reconstruct.
		s64, z64 := float64(scale[b]), float64(zero[b])
		for k := lo; k < hi; k++ {
			if s64 == 0 {
				dst[k] = -128
				continue
			}
			q := int((src[k]-z64)/s64 + 0.5)
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
			dst[k] = int8(q - 128)
		}
	}
}

// TileColumns fills buf, which must hold len(ids)*Dim values, with the
// rows of ids candidate-minor — buf[k*len(ids)+t] = row(ids[t])[k] — and
// returns that prefix. A vector kernel then finds dimension k of
// consecutive candidates in adjacent lanes. The values are Gather's, bit for
// bit: Float64 rows are moved (transposed four at a time in assembly where
// the CPU has AVX2), every other row goes through scatterRow.
func (s *Store) TileColumns(ids []int32, buf []float64) []float64 {
	n := len(ids)
	buf = buf[:n*s.dim]
	t := 0
	if s.prec == Float64 {
		t = s.columnsAVX(ids, buf)
	}
	for ; t < n; t++ {
		s.scatterRow(int(ids[t]), buf[t:], n)
	}
	return buf
}

// Gather copies or dequantizes the rows of ids into dst as one contiguous
// len(ids)×dim block. dst must hold len(ids)*Dim values. It reads 8, 4 or
// ~1.5 bytes per value depending on precision and writes 8. The Go kernels
// read a tile of rows at a time through it.
func (s *Store) Gather(ids []int32, dst []float64) {
	d := s.dim
	_ = dst[:len(ids)*d]
	for j, id := range ids {
		s.scatterRow(int(id), dst[j*d:], 1)
	}
}

// GatherQuantized gathers the raw quantized rows of ids — int8 values plus
// the per-block affine parameters — without dequantizing, as three
// contiguous len(ids)-major blocks: vals holds len(ids)×Dim int8 values,
// scale and zero hold len(ids)×NBlocks float32 parameters, with
// value ≈ zero + scale·(q+128). It moves 1 byte per value (plus 8 bytes per
// BlockDim-dim block) where Gather writes 8; the scoring lane does not use
// it (scatterRow dequantizes straight from the table). Panics unless the
// store's precision is Int8.
func (s *Store) GatherQuantized(ids []int32, vals []int8, scale, zero []float32) {
	if s.prec != Int8 {
		panic("store: GatherQuantized on a " + s.prec.String() + " store")
	}
	d, nb := s.dim, s.nblocks()
	_ = vals[:len(ids)*d]
	_ = scale[:len(ids)*nb]
	_ = zero[:len(ids)*nb]
	for j, id := range ids {
		r := int(id)
		copy(vals[j*d:(j+1)*d], s.i8[r*d:(r+1)*d])
		copy(scale[j*nb:(j+1)*nb], s.scale[r*nb:(r+1)*nb])
		copy(zero[j*nb:(j+1)*nb], s.zero[r*nb:(r+1)*nb])
	}
}

// scatterRow is the store's one row reader: it copies or dequantizes row id
// into dst[0], dst[stride], dst[2*stride], ... — stride 1 for Gather's
// rows, len(ids) for TileColumns' columns. An Int8 value is
// zero + scale·(q+128), in float64.
func (s *Store) scatterRow(id int, dst []float64, stride int) {
	d := s.dim
	switch s.prec {
	case Float64:
		row := s.f64[id*d : (id+1)*d]
		if stride == 1 {
			copy(dst[:d], row) // a memmove: Gather's rows cost what the table's bytes do
			return
		}
		for k, v := range row {
			dst[k*stride] = v
		}
	case Float32:
		for k, v := range s.f32[id*d : (id+1)*d] {
			dst[k*stride] = float64(v)
		}
	case Int8:
		row := s.i8[id*d : (id+1)*d]
		nb := s.nblocks()
		for b := 0; b < nb; b++ {
			lo := b * BlockDim
			hi := min(lo+BlockDim, d)
			sc := float64(s.scale[id*nb+b])
			z := float64(s.zero[id*nb+b])
			for k := lo; k < hi; k++ {
				dst[k*stride] = z + sc*float64(int(row[k])+128)
			}
		}
	}
}
