// Package sparse implements the compressed sparse row (CSR) matrices and the
// handful of kernels — transpose, sparse×sparse product, row normalization —
// that the L-WD relation recommender (Algorithm 1 of the paper) is made of:
//
//	B ∈ {0,1}^{|E|×2|R|}   (domain/range incidence)
//	W = BᵀB, row-normalized (domain/range co-occurrence probabilities)
//	X = B·W                 (relational scores)
//
// Matrices are immutable after construction and safe for concurrent reads.
// Construction and Transpose are counting sorts and RowNormalize a linear
// sweep, all serial. There is one product kernel, Mul, a row-major Gustavson
// product that runs on all cores and writes each row in ascending column
// order, so a product is never sorted. The score matrix is read column-major;
// it is formed as Xᵀ = Wᵀ·Bᵀ, the product of the transposed operands, so it is
// never transposed either. No result depends on the number of cores.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"kgeval/internal/par"
)

// Entry is one (row, col, val) coordinate of a matrix under construction.
type Entry struct {
	Row, Col int32
	Val      float64
}

// CSR is a compressed-sparse-row matrix. A nil Val slice denotes an all-ones
// binary matrix (the pattern is the value), which keeps incidence matrices
// at 4 bytes per nonzero.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int   // len NumRows+1
	ColIdx           []int32 // len nnz, sorted within each row
	Val              []float64
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Binary reports whether the matrix stores an implicit all-ones pattern.
func (m *CSR) Binary() bool { return m.Val == nil }

// valueAt returns the value of the k-th stored nonzero.
func (m *CSR) valueAt(k int) float64 {
	if m.Val == nil {
		return 1
	}
	return m.Val[k]
}

// NewBinaryCSR builds an all-ones CSR matrix from (row, col) pairs encoded
// as entries (Val ignored). Duplicates collapse to a single nonzero. Entries
// out of bounds cause a panic: builders are internal and bounds violations
// are programming errors. The entries slice is only read.
//
// The entries are ordered by (row, col) with two stable counting sorts — by
// column, then by row — in O(nnz + rows + cols) and without a comparison
// sort, then runs of equal coordinates are merged in place. ColIdx is
// allocated at len(entries), plus one int32 per entry of scratch.
func NewBinaryCSR(rows, cols int, entries []Entry) *CSR {
	if len(entries) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %d entries exceed the int32 index range", len(entries)))
	}
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
	colPos := make([]int, cols+1)
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of %dx%d bounds", e.Row, e.Col, rows, cols))
		}
		m.RowPtr[e.Row+1]++
		colPos[e.Col+1]++
	}
	for c := 0; c < cols; c++ {
		colPos[c+1] += colPos[c]
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	byCol := make([]int32, len(entries)) // entry indices, ascending column, ties in input order
	for i, e := range entries {
		byCol[colPos[e.Col]] = int32(i)
		colPos[e.Col]++
	}
	rowEnd := append([]int(nil), m.RowPtr[:rows]...)
	m.ColIdx = make([]int32, len(entries))
	for _, i := range byCol {
		e := entries[i]
		m.ColIdx[rowEnd[e.Row]] = e.Col
		rowEnd[e.Row]++
	}
	// rowEnd[r] is now the end of row r in the duplicate-carrying layout;
	// compact towards the front, rewriting RowPtr as rows shrink.
	w, lo := 0, 0
	for r := 0; r < rows; r++ {
		rowStart := w
		m.RowPtr[r] = rowStart
		for _, c := range m.ColIdx[lo:rowEnd[r]] {
			if w == rowStart || m.ColIdx[w-1] != c {
				m.ColIdx[w] = c
				w++
			}
		}
		lo = rowEnd[r]
	}
	m.RowPtr[rows] = w
	m.ColIdx = m.ColIdx[:w]
	return m
}

// Row returns the column indices and values of row r. The returned slices
// alias internal storage and must not be modified. For binary matrices the
// returned vals slice is nil (all ones).
func (m *CSR) Row(r int) (cols []int32, vals []float64) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	if m.Val == nil {
		return m.ColIdx[lo:hi], nil
	}
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// At returns the value at (r, c), zero if not stored. O(log nnz(row)).
func (m *CSR) At(r, c int) float64 {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	row := m.ColIdx[lo:hi]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(c) })
	if i < len(row) && row[i] == int32(c) {
		return m.valueAt(lo + i)
	}
	return 0
}

// Transpose returns the transposed matrix (CSR of the transpose), computed
// by counting sort in O(nnz + rows + cols).
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		NumRows: m.NumCols,
		NumCols: m.NumRows,
		RowPtr:  make([]int, m.NumCols+1),
		ColIdx:  make([]int32, m.NNZ()),
	}
	if !m.Binary() {
		t.Val = make([]float64, m.NNZ())
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for c := 0; c < m.NumCols; c++ {
		t.RowPtr[c+1] += t.RowPtr[c]
	}
	next := make([]int, m.NumCols)
	copy(next, t.RowPtr[:m.NumCols])
	for r := 0; r < m.NumRows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			pos := next[c]
			next[c]++
			t.ColIdx[pos] = int32(r)
			if t.Val != nil {
				t.Val[pos] = m.Val[k]
			}
		}
	}
	return t
}

// Mul computes the sparse product a·b, row-major, with a two-pass Gustavson
// algorithm. The symbolic pass marks the columns each output row touches in a
// dense per-worker bitmap and counts them, which sizes the output exactly;
// the numeric pass adds a[r][j]·b[j][:] into a dense per-worker accumulator
// of b.NumCols floats for each nonzero j of row r, left to right, then reads
// the marked columns out of the bitmap in ascending order, clearing each slot
// as it goes. A row comes out sorted with no sort and no transpose; a score
// matrix wanted column-major, (x·y)ᵀ, is Mul(yᵀ, xᵀ).
//
// Rows are dealt to par.Workers goroutines in blocks (par.Blocks), several
// per worker, so a hub row leaves no worker idle. Scratch is O(workers ×
// b.NumCols). Neither the layout nor a value depends on which worker ran
// which row: each entry adds its products in ascending j, one rounded
// multiply and one rounded add apiece (a binary b adds a's value without
// multiplying; a binary a multiplies by one, exactly), so the result is
// bit-identical for any GOMAXPROCS. Panics if the inner dimensions disagree.
func Mul(a, b *CSR) *CSR {
	if a.NumCols != b.NumRows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d · %dx%d", a.NumRows, a.NumCols, b.NumRows, b.NumCols))
	}
	rows := a.NumRows
	out := &CSR{NumRows: rows, NumCols: b.NumCols, RowPtr: make([]int, rows+1)}
	scratch := make([]mulScratch, par.Workers(rows))
	for w := range scratch {
		scratch[w] = mulScratch{touched: make([]uint64, (b.NumCols+63)/64), acc: make([]float64, b.NumCols)}
	}
	par.Blocks(rows, func(w, lo, hi int) {
		for r := lo; r < hi; r++ {
			out.RowPtr[r+1] = scratch[w].count(a, b, r)
		}
	})
	for r := 0; r < rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	out.ColIdx = make([]int32, out.RowPtr[rows])
	out.Val = make([]float64, out.RowPtr[rows])
	par.Blocks(rows, func(w, lo, hi int) {
		for r := lo; r < hi; r++ {
			scratch[w].fill(a, b, r, out)
		}
	})
	return out
}

// mulScratch is one Mul worker's dense row state: a bitmap of the columns the
// row in hand touches and their running sums. Both are all zero between rows.
type mulScratch struct {
	touched []uint64
	acc     []float64
}

// count returns the number of distinct columns row r of a·b touches.
func (s *mulScratch) count(a, b *CSR, r int) int {
	touched := s.touched
	for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
		for _, c := range b.ColIdx[b.RowPtr[j]:b.RowPtr[j+1]] {
			touched[c>>6] |= 1 << (c & 63)
		}
	}
	n := 0
	for i, word := range touched {
		n += bits.OnesCount64(word)
		touched[i] = 0
	}
	return n
}

// fill computes row r of a·b into out at out.RowPtr[r], columns ascending.
func (s *mulScratch) fill(a, b *CSR, r int, out *CSR) {
	touched, acc := s.touched, s.acc
	for ka := a.RowPtr[r]; ka < a.RowPtr[r+1]; ka++ {
		j := a.ColIdx[ka]
		av := a.valueAt(ka)
		k0, k1 := b.RowPtr[j], b.RowPtr[j+1]
		if b.Val == nil { // every value is 1: add av·1
			for _, c := range b.ColIdx[k0:k1] {
				touched[c>>6] |= 1 << (c & 63)
				acc[c] += av
			}
			continue
		}
		bvals := b.Val[k0:k1]
		for kb, c := range b.ColIdx[k0:k1] {
			touched[c>>6] |= 1 << (c & 63)
			acc[c] += float64(av * bvals[kb]) // the conversion forbids an FMA
		}
	}
	cols, vals := out.ColIdx[out.RowPtr[r]:out.RowPtr[r+1]], out.Val[out.RowPtr[r]:out.RowPtr[r+1]]
	k := 0
	for i, word := range touched {
		for ; word != 0; word &= word - 1 {
			c := i<<6 | bits.TrailingZeros64(word)
			cols[k], vals[k], acc[c] = int32(c), acc[c], 0
			k++
		}
		touched[i] = 0
	}
}

// RowNormalize returns a copy of m with each row rescaled to sum to 1
// (L1 normalization, turning co-occurrence counts into probabilities).
// All-zero rows remain zero. The result always stores explicit values.
func RowNormalize(m *CSR) *CSR {
	out := &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  append([]int(nil), m.RowPtr...),
		ColIdx:  append([]int32(nil), m.ColIdx...),
		Val:     make([]float64, m.NNZ()),
	}
	for r := 0; r < m.NumRows; r++ {
		sum := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			sum += m.valueAt(k)
		}
		if sum == 0 {
			continue
		}
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			out.Val[k] = m.valueAt(k) / sum
		}
	}
	return out
}
