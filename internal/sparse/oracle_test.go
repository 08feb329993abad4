package sparse

// oracleMul is the product kernel the package shipped before the column-major
// product that preceded Mul: a two-pass Gustavson product that writes a·b
// row-major and comparison-sorts every row's column list. It is kept verbatim
// as the reference Mul must match bit for bit, and Mul(bᵀ, aᵀ) once
// transposed.

import (
	"fmt"
	"slices"

	"kgeval/internal/par"
)

func oracleMul(a, b *CSR) *CSR {
	if a.NumCols != b.NumRows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %dx%d · %dx%d", a.NumRows, a.NumCols, b.NumRows, b.NumCols))
	}
	out := &CSR{
		NumRows: a.NumRows,
		NumCols: b.NumCols,
		RowPtr:  make([]int, a.NumRows+1),
	}
	scratch := make([]oracleScratch, par.Workers(a.NumRows))
	for w := range scratch {
		scratch[w].mark = make([]int, b.NumCols)
		for i := range scratch[w].mark {
			scratch[w].mark[i] = -1
		}
		scratch[w].acc = make([]float64, b.NumCols)
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

type oracleScratch struct {
	mark []int
	acc  []float64
}

// countRow returns the number of distinct columns row r of a·b touches.
func (s *oracleScratch) countRow(a, b *CSR, r int) int {
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
func (s *oracleScratch) fillRow(a, b *CSR, r int, cols []int32, vals []float64) {
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
