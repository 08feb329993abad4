// Package sparse implements the compressed sparse row (CSR) matrices and the
// handful of kernels — transpose, sparse×sparse product, row normalization —
// that the L-WD relation recommender (Algorithm 1 of the paper) is made of:
//
//	B ∈ {0,1}^{|E|×2|R|}   (domain/range incidence)
//	W = BᵀB, row-normalized (domain/range co-occurrence probabilities)
//	X = B·W                 (relational scores)
//
// Matrices are immutable after construction and safe for concurrent reads.
// Construction is a counting sort, Mul runs on all cores; Transpose and
// RowNormalize are single linear sweeps and stay serial. No result depends
// on the number of cores.
package sparse

import (
	"fmt"
	"math"
	"slices"
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

// NewCSR builds a CSR matrix from coordinate entries. Duplicate (row, col)
// coordinates are summed in input order. Entries out of bounds cause a panic:
// builders are internal and bounds violations are programming errors. The
// entries slice is only read.
func NewCSR(rows, cols int, entries []Entry) *CSR {
	return fromEntries(rows, cols, entries, false)
}

// NewBinaryCSR builds an all-ones CSR matrix from (row, col) pairs encoded
// as entries (Val ignored). Duplicates collapse to a single nonzero.
func NewBinaryCSR(rows, cols int, entries []Entry) *CSR {
	return fromEntries(rows, cols, entries, true)
}

// fromEntries orders the entries by (row, col) with two stable counting
// sorts — by column, then by row — in O(nnz + rows + cols) and without a
// comparison sort, then merges runs of equal coordinates in place. It
// allocates the output arrays at len(entries) plus one int32 per entry of
// scratch; stability is what fixes the order in which duplicates are summed.
func fromEntries(rows, cols int, entries []Entry, binary bool) *CSR {
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
	if !binary {
		m.Val = make([]float64, len(entries))
	}
	for _, i := range byCol {
		e := entries[i]
		k := rowEnd[e.Row]
		rowEnd[e.Row]++
		m.ColIdx[k] = e.Col
		if !binary {
			m.Val[k] = e.Val
		}
	}
	// rowEnd[r] is now the end of row r in the duplicate-carrying layout;
	// compact towards the front, rewriting RowPtr as rows shrink.
	w, lo := 0, 0
	for r := 0; r < rows; r++ {
		rowStart := w
		m.RowPtr[r] = rowStart
		for k := lo; k < rowEnd[r]; k++ {
			c := m.ColIdx[k]
			if w > rowStart && m.ColIdx[w-1] == c {
				if !binary {
					m.Val[w-1] += m.Val[k]
				}
				continue
			}
			m.ColIdx[w] = c
			if !binary {
				m.Val[w] = m.Val[k]
			}
			w++
		}
		lo = rowEnd[r]
	}
	m.RowPtr[rows] = w
	m.ColIdx = m.ColIdx[:w]
	if !binary {
		m.Val = m.Val[:w]
	}
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

// Mul computes the sparse product a·b with a two-pass Gustavson algorithm.
// A symbolic pass counts each output row's nonzeros, which sizes RowPtr and
// lets ColIdx and Val be allocated once at their exact length; a numeric pass
// then accumulates every row in a dense per-worker accumulator and writes it
// straight into its slot. Both passes run over contiguous row blocks on
// par.Workers(a.NumRows) goroutines, each with its own O(b.NumCols) scratch.
// A row's products are added in the same order whatever the worker count —
// a's nonzeros left to right, each against b's row left to right — so the
// result is bit-identical for any GOMAXPROCS. Panics if the inner dimensions
// disagree.
func Mul(a, b *CSR) *CSR {
	if a.NumCols != b.NumRows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d · %dx%d", a.NumRows, a.NumCols, b.NumRows, b.NumCols))
	}
	out := &CSR{
		NumRows: a.NumRows,
		NumCols: b.NumCols,
		RowPtr:  make([]int, a.NumRows+1),
	}
	scratch := make([]mulScratch, par.Workers(a.NumRows))
	for w := range scratch {
		scratch[w].init(b.NumCols)
	}
	par.Blocks(a.NumRows, func(w, lo, hi int) {
		for r := lo; r < hi; r++ {
			out.RowPtr[r+1] = scratch[w].countRow(a, b, r)
		}
	})
	for r := 0; r < a.NumRows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	out.ColIdx = make([]int32, out.RowPtr[a.NumRows])
	out.Val = make([]float64, out.RowPtr[a.NumRows])
	par.Blocks(a.NumRows, func(w, lo, hi int) {
		for r := lo; r < hi; r++ {
			k0, k1 := out.RowPtr[r], out.RowPtr[r+1]
			scratch[w].fillRow(a, b, r, out.ColIdx[k0:k0:k1], out.Val[k0:k1])
		}
	})
	return out
}

// mulScratch is one Mul worker's dense row state. mark[c] holds the tag of
// the last row that touched column c; the symbolic pass tags with the row
// index and the numeric pass with NumRows + row, so no reset is needed
// between rows or between passes.
type mulScratch struct {
	mark []int
	acc  []float64
}

func (s *mulScratch) init(cols int) {
	s.mark = make([]int, cols)
	for i := range s.mark {
		s.mark[i] = -1
	}
	s.acc = make([]float64, cols)
}

// countRow returns the number of distinct columns row r of a·b touches.
func (s *mulScratch) countRow(a, b *CSR, r int) int {
	n := 0
	for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
		for _, c := range b.ColIdx[b.RowPtr[j]:b.RowPtr[j+1]] {
			if s.mark[c] != r {
				s.mark[c] = r
				n++
			}
		}
		if n == len(s.mark) {
			break // the row is already full
		}
	}
	return n
}

// fillRow computes row r of a·b into cols (length 0, capacity the row's
// count) and vals, columns ascending.
func (s *mulScratch) fillRow(a, b *CSR, r int, cols []int32, vals []float64) {
	tag := a.NumRows + r
	mark, acc := s.mark, s.acc
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
				cols = append(cols, c)
			}
			if bvals != nil {
				acc[c] += av * bvals[kb]
			} else {
				acc[c] += av // av·1
			}
		}
	}
	slices.Sort(cols)
	for i, c := range cols {
		vals[i] = acc[c]
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
