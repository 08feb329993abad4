// Package recommender implements the relation recommenders of the paper
// (§2, §3): methods that assign every entity a score for being the head
// (domain) or tail (range) of every relation, while being agnostic to the
// other entity in a query. Because scores depend only on the relation, an
// evaluation needs just 2·|R| candidate samplings instead of one per query —
// the paper's key complexity reduction (Table 3).
//
// Implemented recommenders (Table 1 of the paper):
//
//	PT       — PseudoTyped: observed train domains/ranges, binary.
//	DBH      — Degree-Based Heuristic: occurrence counts (Chen et al.).
//	DBH-T    — DBH generalized through entity types.
//	OntoSim  — type-reachability heuristic (binary DBH-T).
//	L-WD     — linear Wikidata recommender via sparse co-occurrence
//	           (Algorithm 1), parameter-free.
//	L-WD-T   — L-WD with entity types appended to the incidence matrix.
//	PIE-Sim  — a learned neural recommender standing in for PIE.
//
// Score-matrix convention: X has |E| rows and 2·|R| columns; column r holds
// domain (head) scores for relation r and column |R|+r holds range (tail)
// scores.
package recommender

import (
	"fmt"

	"kgeval/internal/kg"
	"kgeval/internal/sparse"
)

// DomainCol returns the score-matrix column for the domain (head side) of r.
func DomainCol(r, numRelations int) int { return r }

// RangeCol returns the score-matrix column for the range (tail side) of r.
func RangeCol(r, numRelations int) int { return numRelations + r }

// Recommender is a relation recommender: Fit learns from a graph's training
// split (and its type assignment, if the method uses types), after which
// Scores exposes the |E|×2|R| score matrix.
type Recommender interface {
	// Name identifies the method in tables ("L-WD", "PT", ...).
	Name() string
	// Fit learns the score matrix from g.Train (and g.EntityTypes when the
	// method is type-aware). It returns an error if the method's
	// requirements (e.g. types) are not met by the graph.
	Fit(g *kg.Graph) error
	// Scores returns the fitted score matrix. Panics if called before Fit.
	Scores() *ScoreMatrix
	// NeedsTypes reports whether Fit requires g.EntityTypes.
	NeedsTypes() bool
	// SupportsUnseen reports whether the method can give nonzero score to an
	// entity never observed in a relation's domain/range (Table 1).
	SupportsUnseen() bool
}

// ScoreMatrix is the fitted |E|×2|R| relational score matrix with fast
// access by row (entity) and column (domain/range), the latter being what
// candidate sampling consumes.
type ScoreMatrix struct {
	NumEntities  int
	NumRelations int
	byRow        *sparse.CSR // |E| × 2|R|
	byCol        *sparse.CSR // transpose: 2|R| × |E|
}

// NewScoreMatrix wraps a row-major CSR score matrix. The matrix must have
// exactly 2·numRelations columns.
func NewScoreMatrix(x *sparse.CSR, numRelations int) *ScoreMatrix {
	if x.NumCols != 2*numRelations {
		panic(fmt.Sprintf("recommender: score matrix has %d cols, want %d", x.NumCols, 2*numRelations))
	}
	if x.Binary() {
		// Materialize explicit ones so Column/Row always return values.
		x = &sparse.CSR{
			NumRows: x.NumRows,
			NumCols: x.NumCols,
			RowPtr:  x.RowPtr,
			ColIdx:  x.ColIdx,
			Val:     ones(x.NNZ()),
		}
	}
	return &ScoreMatrix{
		NumEntities:  x.NumRows,
		NumRelations: numRelations,
		byRow:        x,
		byCol:        x.Transpose(),
	}
}

// Column returns the entity ids and scores with nonzero entries in the given
// domain/range column. Returned slices alias internal storage.
func (s *ScoreMatrix) Column(col int) (ids []int32, scores []float64) {
	ids, scores = s.byCol.Row(col)
	return ids, scores
}

// Score returns the score of entity e in column col (0 if unscored).
func (s *ScoreMatrix) Score(e int32, col int) float64 {
	return s.byRow.At(int(e), col)
}

// NNZ returns the number of nonzero (entity, column) scores.
func (s *ScoreMatrix) NNZ() int { return s.byRow.NNZ() }

// EasyNegatives counts the zero-score (entity, column) pairs — the paper's
// "easy negatives" that can be ruled out without scoring (Table 2) — and the
// fraction they make of all |E|·2|R| pairs.
func (s *ScoreMatrix) EasyNegatives() (count int, fraction float64) {
	total := s.NumEntities * 2 * s.NumRelations
	count = total - s.NNZ()
	if total == 0 {
		return 0, 0
	}
	return count, float64(count) / float64(total)
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// incidence builds the binary |E|×2|R| domain/range incidence matrix B from
// the training split: B[e][r]=1 iff e seen as head of r, B[e][|R|+r]=1 iff
// seen as tail.
func incidence(g *kg.Graph) *sparse.CSR {
	entries := make([]sparse.Entry, 0, 2*len(g.Train))
	for _, t := range g.Train {
		entries = append(entries,
			sparse.Entry{Row: t.H, Col: t.R},
			sparse.Entry{Row: t.T, Col: int32(g.NumRelations) + t.R},
		)
	}
	return sparse.NewBinaryCSR(g.NumEntities, 2*g.NumRelations, entries)
}

// typeMatrix builds the binary |E|×|T| entity-type matrix.
func typeMatrix(g *kg.Graph) *sparse.CSR {
	n := 0
	for _, ts := range g.EntityTypes {
		n += len(ts)
	}
	entries := make([]sparse.Entry, 0, n)
	for e, ts := range g.EntityTypes {
		for _, t := range ts {
			entries = append(entries, sparse.Entry{Row: int32(e), Col: t})
		}
	}
	return sparse.NewBinaryCSR(g.NumEntities, g.NumTypes, entries)
}

// RequireTypes errors when a type-aware method (NeedsTypes) meets an untyped
// graph: the error its Fit returns, which a caller can have before fitting.
func RequireTypes(name string, g *kg.Graph) error {
	if g.EntityTypes == nil || g.NumTypes == 0 {
		return fmt.Errorf("recommender: %s requires entity types, but graph %q has none", name, g.Name)
	}
	return nil
}
