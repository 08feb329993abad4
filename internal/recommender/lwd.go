package recommender

import (
	"slices"

	"kgeval/internal/kg"
	"kgeval/internal/sparse"
)

// LWD is the paper's Linear-WD recommender (Algorithm 1, Figure 2): a
// parameter-free linearization of association-rule-mining property
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
type LWD struct {
	scores *ScoreMatrix
}

// NewLWD returns an L-WD recommender.
func NewLWD() *LWD { return &LWD{} }

func (*LWD) Name() string         { return "L-WD" }
func (*LWD) NeedsTypes() bool     { return false }
func (*LWD) SupportsUnseen() bool { return true }

// Fit runs Algorithm 1 without the optional type set.
func (l *LWD) Fit(g *kg.Graph) error {
	b := incidence(g)
	w := sparse.RowNormalize(sparse.GramT(b))
	l.scores = NewScoreMatrix(sparse.Mul(b, w), g.NumRelations)
	return nil
}

// Scores returns the fitted score matrix.
func (l *LWD) Scores() *ScoreMatrix { return l.scores }

// LWDT is L-WD-T: Algorithm 1 with the optional type set, appending one
// binary column per entity type to B so that type membership participates in
// the co-occurrence graph. The output keeps only the 2·|R| domain/range
// columns (type columns are auxiliary evidence).
type LWDT struct {
	scores *ScoreMatrix
}

// NewLWDT returns an L-WD-T recommender.
func NewLWDT() *LWDT { return &LWDT{} }

func (*LWDT) Name() string         { return "L-WD-T" }
func (*LWDT) NeedsTypes() bool     { return true }
func (*LWDT) SupportsUnseen() bool { return true }

// Fit runs Algorithm 1 with the type set.
func (l *LWDT) Fit(g *kg.Graph) error {
	if err := RequireTypes(l.Name(), g); err != nil {
		return err
	}
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
	x := sparse.Mul(b, w)
	l.scores = NewScoreMatrix(truncateCols(x, nr2), g.NumRelations)
	return nil
}

// Scores returns the fitted score matrix.
func (l *LWDT) Scores() *ScoreMatrix { return l.scores }

// truncateCols keeps the first cols columns of m. Rows are sorted by column,
// so the kept part of each row is a prefix; it is counted first so the output
// is allocated once at its exact size.
func truncateCols(m *sparse.CSR, cols int) *sparse.CSR {
	out := &sparse.CSR{
		NumRows: m.NumRows,
		NumCols: cols,
		RowPtr:  make([]int, m.NumRows+1),
	}
	for r := 0; r < m.NumRows; r++ {
		cs, _ := m.Row(r)
		keep, _ := slices.BinarySearch(cs, int32(cols))
		out.RowPtr[r+1] = out.RowPtr[r] + keep
	}
	out.ColIdx = make([]int32, 0, out.RowPtr[m.NumRows])
	out.Val = make([]float64, 0, out.RowPtr[m.NumRows])
	for r := 0; r < m.NumRows; r++ {
		cs, vs := m.Row(r)
		keep := out.RowPtr[r+1] - out.RowPtr[r]
		out.ColIdx = append(out.ColIdx, cs[:keep]...)
		out.Val = append(out.Val, vs[:keep]...)
	}
	return out
}
