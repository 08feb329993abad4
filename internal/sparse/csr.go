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
// sweep, all serial. There is one product kernel, MulT, which runs on all
// cores and writes (a·b)ᵀ directly — the orientation the score matrix is read
// in — so a product is never sorted or transposed afterwards; Mul is MulT
// plus a Transpose, for the two small products. No result depends on the
// number of cores.
package sparse

import (
	"fmt"
	"math"
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

// mulChunks is how many row chunks MulT cuts a into. A chunk is the unit of
// work the workers claim and the unit of output layout, so its boundaries
// depend on a.NumRows alone: enough chunks that a heavy one (hub entities)
// leaves no worker idle, few enough that the chunk×column position table
// stays small next to the output.
const mulChunks = 256

// MulT computes (a·b)ᵀ — the product in column-major order — with a two-pass
// Gustavson algorithm. a's rows are cut into fixed chunks. A symbolic pass
// counts, per chunk and output column, the rows with a nonzero there; prefix
// sums over (column, chunk) size the output exactly and give every chunk its
// own slot in every column. The numeric pass then accumulates each row of a·b
// in a dense per-worker accumulator and appends (row, value) to its chunk's
// slot of every column the row touched. Rows ascend inside a chunk and chunks
// are laid out in order, so each column comes out sorted with no sort and no
// transpose.
//
// Chunks run on par.Workers goroutines, each with its own O(b.NumCols)
// scratch. Neither the layout nor a value depends on which worker ran which
// chunk: a row's products are added in the same order whatever the worker
// count — a's nonzeros left to right, each against b's row left to right — so
// the result is bit-identical for any GOMAXPROCS. Panics if the inner
// dimensions disagree.
func MulT(a, b *CSR) *CSR {
	if a.NumCols != b.NumRows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d · %dx%d", a.NumRows, a.NumCols, b.NumRows, b.NumCols))
	}
	rows, cols := a.NumRows, b.NumCols
	out := &CSR{NumRows: cols, NumCols: rows, RowPtr: make([]int, cols+1)}
	size := max(1, (rows+mulChunks-1)/mulChunks)
	chunks := (rows + size - 1) / size
	scratch := make([]mulScratch, par.Workers(chunks))
	for w := range scratch {
		scratch[w].init(cols)
	}
	// pos[k*cols+c]: first the number of chunk k's rows with a nonzero in
	// output column c, then where the next of them goes in ColIdx and Val.
	pos := make([]int, chunks*cols)
	par.Blocks(chunks, func(w, k0, k1 int) {
		for k := k0; k < k1; k++ {
			scratch[w].count(a, b, k*size, min((k+1)*size, rows), pos[k*cols:(k+1)*cols])
		}
	})
	n := 0
	for c := 0; c < cols; c++ {
		out.RowPtr[c] = n
		for k := 0; k < chunks; k++ {
			pos[k*cols+c], n = n, n+pos[k*cols+c]
		}
	}
	out.RowPtr[cols] = n
	out.ColIdx = make([]int32, n)
	out.Val = make([]float64, n)
	par.Blocks(chunks, func(w, k0, k1 int) {
		for k := k0; k < k1; k++ {
			scratch[w].fill(a, b, k*size, min((k+1)*size, rows), pos[k*cols:(k+1)*cols], out)
		}
	})
	return out
}

// Mul computes the sparse product a·b: MulT's result transposed back. It is
// for the small products (BᵀB, Tᵀ·B: a handful of rows); a large product is
// wanted column-major and takes MulT's output as it is.
func Mul(a, b *CSR) *CSR { return MulT(a, b).Transpose() }

// mulScratch is one MulT worker's dense row state. mark[c] holds the tag of
// the last row that touched column c; the symbolic pass tags with the row
// index and the numeric pass with NumRows + row, so no reset is needed
// between rows or between passes.
type mulScratch struct {
	mark    []int
	acc     []float64
	touched []int32 // the columns of the row in hand, in first-touch order
}

func (s *mulScratch) init(cols int) {
	s.mark = make([]int, cols)
	for i := range s.mark {
		s.mark[i] = -1
	}
	s.acc = make([]float64, cols)
	s.touched = make([]int32, 0, cols)
}

// count adds to n[c] the number of rows in [lo, hi) of a·b that touch
// column c.
func (s *mulScratch) count(a, b *CSR, lo, hi int, n []int) {
	for r := lo; r < hi; r++ {
		seen := 0
		for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
			for _, c := range b.ColIdx[b.RowPtr[j]:b.RowPtr[j+1]] {
				if s.mark[c] != r {
					s.mark[c] = r
					n[c]++
					seen++
				}
			}
			if seen == len(s.mark) {
				break // the row is already full
			}
		}
	}
}

// fill computes rows [lo, hi) of a·b and appends each row's nonzeros to the
// columns of out, at the positions pos holds for this chunk.
func (s *mulScratch) fill(a, b *CSR, lo, hi int, pos []int, out *CSR) {
	mark, acc := s.mark, s.acc
	for r := lo; r < hi; r++ {
		tag := a.NumRows + r
		touched := s.touched[:0]
		for ka := a.RowPtr[r]; ka < a.RowPtr[r+1]; ka++ {
			j := a.ColIdx[ka]
			av := a.valueAt(ka)
			k0, k1 := b.RowPtr[j], b.RowPtr[j+1]
			var bvals []float64 // nil for a binary b: every value is 1
			if b.Val != nil {
				bvals = b.Val[k0:k1]
			}
			for kb, c := range b.ColIdx[k0:k1] {
				if mark[c] != tag {
					mark[c] = tag
					acc[c] = 0
					touched = append(touched, c)
				}
				if bvals != nil {
					acc[c] += av * bvals[kb]
				} else {
					acc[c] += av // av·1
				}
			}
		}
		for _, c := range touched {
			k := pos[c]
			pos[c] = k + 1
			out.ColIdx[k] = int32(r)
			out.Val[k] = acc[c]
		}
	}
}

// GramT computes AᵀA — the co-occurrence matrix at the heart of L-WD, where
// entry (i, j) counts entities that belong to both domain/range column i and
// column j.
func GramT(a *CSR) *CSR {
	return Mul(a.Transpose(), a)
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
