package recommender

import (
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
	return &method{name: "L-WD", unseen: true, build: func(g *kg.Graph) *sparse.CSR {
		b := incidence(g)
		w := sparse.RowNormalize(sparse.GramT(b))
		return sparse.MulT(b, w)
	}}
}

// NewLWDT returns L-WD-T: Algorithm 1 with the optional type set, appending
// one binary column per entity type to B so that type membership
// participates in the co-occurrence graph. The output keeps only the 2·|R|
// domain/range columns (type columns are auxiliary evidence).
func NewLWDT() Recommender {
	return &method{name: "L-WD-T", types: true, unseen: true, build: func(g *kg.Graph) *sparse.CSR {
		nr2 := 2 * g.NumRelations
		entries := make([]sparse.Entry, 0, 2*len(g.Train))
		for _, t := range g.Train {
			entries = append(entries,
				sparse.Entry{Row: t.H, Col: t.R},
				sparse.Entry{Row: t.T, Col: int32(g.NumRelations) + t.R},
			)
		}
		for e, ts := range g.EntityTypes {
			for _, t := range ts {
				entries = append(entries, sparse.Entry{Row: int32(e), Col: int32(nr2) + t})
			}
		}
		b := sparse.NewBinaryCSR(g.NumEntities, nr2+g.NumTypes, entries)
		w := sparse.RowNormalize(sparse.GramT(b))
		// Only W's first 2·|R| columns reach the output, so only they are
		// multiplied: a column of B·W is B against that column of W.
		w = firstRows(w.Transpose(), nr2).Transpose()
		return sparse.MulT(b, w)
	}}
}

// firstRows keeps the first n rows of m, sharing its storage.
func firstRows(m *sparse.CSR, n int) *sparse.CSR {
	nnz := m.RowPtr[n]
	return &sparse.CSR{NumRows: n, NumCols: m.NumCols, RowPtr: m.RowPtr[:n+1], ColIdx: m.ColIdx[:nnz], Val: m.Val[:nnz]}
}
