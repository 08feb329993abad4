package recommender

import (
	"slices"

	"kgeval/internal/kg"
	"kgeval/internal/sparse"
)

// NewLWD returns the paper's Linear-WD recommender (Algorithm 1, Figure 2):
// a parameter-free linearization of association-rule-mining property
// recommendation.
//
//	B ∈ {0,1}^{|E|×2|R|}  — domain/range incidence from training triples
//	W = rownorm(BᵀB)      — co-occurrence probabilities between columns
//	X = B·W               — aggregated confidence scores
//
// Intuition: if the domain of ParentOf and the domain of LivesIn co-occur
// (people both have parents and live somewhere), an entity observed in one
// receives score mass in the other — so L-WD proposes candidates that were
// never observed in a relation, unlike PT/DBH. Only two sparse matrix
// multiplications and a normalization; runs in (milli)seconds on a CPU.
func NewLWD() Recommender {
	return &method{name: "L-WD", unseen: true, build: func(g *kg.Graph, bt *sparse.CSR) *sparse.CSR {
		return lwdScores(bt, 2*g.NumRelations)
	}}
}

// NewLWDT returns L-WD-T: Algorithm 1 with the optional type set, appending
// one binary column per entity type to B so that type membership
// participates in the co-occurrence graph. The output keeps only the 2·|R|
// domain/range columns (type columns are auxiliary evidence).
func NewLWDT() Recommender {
	return &method{name: "L-WD-T", types: true, unseen: true, build: func(g *kg.Graph, bt *sparse.CSR) *sparse.CSR {
		return lwdScores(stackRows(bt, typeMatrix(g).Transpose()), 2*g.NumRelations)
	}}
}

// lwdScores returns the first n columns of X = B·W, W = rownorm(BᵀB),
// column-major, given Bᵀ: Xᵀ = Wᵀ·Bᵀ, with only Wᵀ's first n rows
// multiplied, since a row of Xᵀ is Bᵀ against that row of Wᵀ.
func lwdScores(bt *sparse.CSR, n int) *sparse.CSR {
	w := sparse.RowNormalize(sparse.Mul(bt, bt.Transpose()))
	return sparse.Mul(firstRows(w.Transpose(), n), bt)
}

// firstRows keeps the first n rows of m, sharing its storage.
func firstRows(m *sparse.CSR, n int) *sparse.CSR {
	nnz := m.RowPtr[n]
	return &sparse.CSR{NumRows: n, NumCols: m.NumCols, RowPtr: m.RowPtr[:n+1], ColIdx: m.ColIdx[:nnz], Val: m.Val[:nnz]}
}

// stackRows returns the binary matrix whose rows are a's followed by b's;
// a and b have the same number of columns.
func stackRows(a, b *sparse.CSR) *sparse.CSR {
	m := &sparse.CSR{NumRows: a.NumRows + b.NumRows, NumCols: a.NumCols,
		RowPtr: slices.Concat(a.RowPtr, b.RowPtr[1:]), ColIdx: slices.Concat(a.ColIdx, b.ColIdx)}
	for i := a.NumRows + 1; i < len(m.RowPtr); i++ {
		m.RowPtr[i] += a.NNZ()
	}
	return m
}
