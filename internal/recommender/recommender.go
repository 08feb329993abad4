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
//	PIE      — a learned neural recommender standing in for PIE
//	           (Chao et al.); ByName also accepts "PIE-Sim".
//
// The recommenders differ only in how they build the score matrix, so each
// is a method: its name, whether it needs entity types, whether it can
// score unseen candidates (Table 1), and the function that builds its
// matrix. One Fit serves all seven: it builds Bᵀ, the train-observed
// domain/range incidence every method starts from, once, hands it to the
// method's build, and keeps it beside the fitted matrix, where BuildStatic
// finds the known members it measures recall against.
//
// Score-matrix convention: X has |E| rows and 2·|R| columns; column r holds
// domain (head) scores for relation r and column |R|+r holds range (tail)
// scores. It is stored once, column-major (a 2·|R|×|E| CSR), because its
// consumers — pool draw and discretization — read whole columns; every
// recommender builds it in that orientation. Score, the single-cell lookup,
// is a binary search in the column: O(log nnz(column)).
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
	// Scores returns the fitted score matrix, or nil before Fit.
	Scores() *ScoreMatrix
	// NeedsTypes reports whether Fit requires g.EntityTypes.
	NeedsTypes() bool
	// SupportsUnseen reports whether the method can give nonzero score to an
	// entity never observed in a relation's domain/range (Table 1).
	SupportsUnseen() bool
}

// method is a Recommender: what sets one apart from another is its name,
// its two Table 1 flags and the function that builds its score matrix from
// the graph and its Bᵀ.
type method struct {
	name   string
	types  bool // Fit needs entity types
	unseen bool // can score unseen candidates (Table 1)
	counts bool // Bᵀ carries DBH's counts rather than ones
	// build returns Xᵀ, column-major, from the graph and its Bᵀ
	// (incidenceT); it reads bt and does not change it.
	build  func(g *kg.Graph, bt *sparse.CSR) *sparse.CSR
	scores *ScoreMatrix
}

func (m *method) Name() string         { return m.name }
func (m *method) NeedsTypes() bool     { return m.types }
func (m *method) SupportsUnseen() bool { return m.unseen }
func (m *method) Scores() *ScoreMatrix { return m.scores }

// Fit builds Bᵀ once and the score matrix from it, refusing an untyped
// graph if the method needs types. The matrix keeps Bᵀ, so that BuildStatic
// reads its known members instead of building them again.
func (m *method) Fit(g *kg.Graph) error {
	if m.types {
		if err := RequireTypes(m.name, g); err != nil {
			return err
		}
	}
	bt := incidenceT(g, m.counts)
	m.scores = NewScoreMatrix(m.build(g, bt), g.NumRelations)
	m.scores.seen = bt
	return nil
}

// ScoreMatrix is the fitted |E|×2|R| relational score matrix, stored by
// column (domain/range), which is what candidate sampling consumes.
type ScoreMatrix struct {
	NumEntities  int
	NumRelations int
	byCol        *sparse.CSR // Xᵀ: 2|R| × |E|
	// seen is the Bᵀ Fit built the matrix from: the train-observed members
	// of each column (with DBH's counts as values, which nothing reads from
	// here). A matrix from NewScoreMatrix has none.
	seen *sparse.CSR
}

// NewScoreMatrix wraps a column-major score matrix: xt is Xᵀ, one row per
// domain/range column, and must have exactly 2·numRelations rows. A binary
// xt gets explicit ones, so Column always returns values.
func NewScoreMatrix(xt *sparse.CSR, numRelations int) *ScoreMatrix {
	if xt.NumRows != 2*numRelations {
		panic(fmt.Sprintf("recommender: score matrix has %d columns, want %d", xt.NumRows, 2*numRelations))
	}
	if xt.Binary() {
		ones := make([]float64, xt.NNZ())
		for i := range ones {
			ones[i] = 1
		}
		xt = &sparse.CSR{NumRows: xt.NumRows, NumCols: xt.NumCols, RowPtr: xt.RowPtr, ColIdx: xt.ColIdx, Val: ones}
	}
	return &ScoreMatrix{NumEntities: xt.NumCols, NumRelations: numRelations, byCol: xt}
}

// Column returns the entity ids and scores with nonzero entries in the given
// domain/range column. Returned slices alias internal storage.
func (s *ScoreMatrix) Column(col int) (ids []int32, scores []float64) {
	return s.byCol.Row(col)
}

// Score returns the score of entity e in column col (0 if unscored), by
// binary search in the column.
func (s *ScoreMatrix) Score(e int32, col int) float64 {
	return s.byCol.At(col, int(e))
}

// NNZ returns the number of nonzero (entity, column) scores.
func (s *ScoreMatrix) NNZ() int { return s.byCol.NNZ() }

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

// incidenceT builds Bᵀ, the 2|R|×|E| transpose of the domain/range incidence
// matrix, straight from the training split: row r lists the entities seen as
// head of relation r and row |R|+r those seen as tail, ascending and
// duplicate-free — the PseudoTyped view of the graph. With counts, Val holds
// how many training triples put the entity there (DBH's score); without, the
// matrix is binary.
//
// Two counting sorts and no comparison sort: the 2·|Train| (entity, column)
// pairs are bucketed by entity, then dealt to their columns in entity order.
// A column's repeats of one entity arrive together, so remembering the last
// entity each column took (mark) is enough to merge them.
func incidenceT(g *kg.Graph, counts bool) *sparse.CSR {
	nr, ne, numCols := int32(g.NumRelations), g.NumEntities, 2*g.NumRelations
	end := make([]int, ne+1) // once the pairs are bucketed, where entity e's end
	for _, t := range g.Train {
		end[t.H]++
		end[t.T]++
	}
	for e, n := 0, 0; e <= ne; e++ {
		end[e], n = n, n+end[e]
	}
	pairCol := make([]int32, 2*len(g.Train))
	for _, t := range g.Train {
		pairCol[end[t.H]] = t.R
		end[t.H]++
		pairCol[end[t.T]] = nr + t.R
		end[t.T]++
	}
	bt := &sparse.CSR{NumRows: numCols, NumCols: ne, RowPtr: make([]int, numCols+1)}
	mark := make([]int32, numCols) // last entity the column took, plus one
	for e, lo := int32(0), 0; int(e) < ne; e++ {
		for _, c := range pairCol[lo:end[e]] {
			if mark[c] != e+1 {
				mark[c] = e + 1
				bt.RowPtr[c+1]++
			}
		}
		lo = end[e]
	}
	for c := 0; c < numCols; c++ {
		bt.RowPtr[c+1] += bt.RowPtr[c]
	}
	bt.ColIdx = make([]int32, bt.RowPtr[numCols])
	if counts {
		bt.Val = make([]float64, bt.RowPtr[numCols])
	}
	next := append([]int(nil), bt.RowPtr[:numCols]...)
	clear(mark)
	for e, lo := int32(0), 0; int(e) < ne; e++ {
		for _, c := range pairCol[lo:end[e]] {
			if mark[c] != e+1 {
				mark[c] = e + 1
				bt.ColIdx[next[c]] = e
				next[c]++
			}
			if counts {
				bt.Val[next[c]-1]++
			}
		}
		lo = end[e]
	}
	return bt
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
