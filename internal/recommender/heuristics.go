package recommender

import (
	"kgeval/internal/kg"
	"kgeval/internal/sparse"
)

// PT is the PseudoTyped heuristic (Krompass et al.; PyKEEN terminology):
// the domain/range of a relation is exactly the set of entities observed in
// that position in training. Binary scores; cannot propose unseen
// candidates, which is its documented weakness on 1-1/1-M/M-1 relations.
type PT struct {
	scores *ScoreMatrix
}

// NewPT returns a PseudoTyped recommender.
func NewPT() *PT { return &PT{} }

func (*PT) Name() string         { return "PT" }
func (*PT) NeedsTypes() bool     { return false }
func (*PT) SupportsUnseen() bool { return false }

// Fit records the observed domains and ranges.
func (p *PT) Fit(g *kg.Graph) error {
	p.scores = NewScoreMatrix(incidenceT(g, false), g.NumRelations)
	return nil
}

// Scores returns the fitted score matrix.
func (p *PT) Scores() *ScoreMatrix { return p.scores }

// DBH is the Degree-Based Heuristic of Chen et al. (OGB-LSC): an entity's
// score for the domain of r is the number of times it was observed as a head
// of r in training. Same support as PT (upper-bounded by PT in recall), but
// graded scores make it usable for probabilistic sampling.
type DBH struct {
	scores *ScoreMatrix
}

// NewDBH returns a Degree-Based Heuristic recommender.
func NewDBH() *DBH { return &DBH{} }

func (*DBH) Name() string         { return "DBH" }
func (*DBH) NeedsTypes() bool     { return false }
func (*DBH) SupportsUnseen() bool { return false }

// Fit counts occurrences per (entity, domain/range) pair.
func (d *DBH) Fit(g *kg.Graph) error {
	d.scores = NewScoreMatrix(incidenceT(g, true), g.NumRelations)
	return nil
}

// Scores returns the fitted score matrix.
func (d *DBH) Scores() *ScoreMatrix { return d.scores }

// DBHT generalizes DBH through entity types (§3.2): every observation of a
// type-t entity as head of r adds 1 to the domain score of *all* type-t
// entities. Computed as T·(Tᵀ·B) with T the entity-type matrix and B the
// distinct-pair incidence matrix. Unlike DBH it can score unseen candidates.
type DBHT struct {
	scores *ScoreMatrix
}

// NewDBHT returns a type-generalized DBH recommender.
func NewDBHT() *DBHT { return &DBHT{} }

func (*DBHT) Name() string         { return "DBH-T" }
func (*DBHT) NeedsTypes() bool     { return true }
func (*DBHT) SupportsUnseen() bool { return true }

// Fit propagates domain/range membership through types.
func (d *DBHT) Fit(g *kg.Graph) error {
	if err := RequireTypes(d.Name(), g); err != nil {
		return err
	}
	d.scores = NewScoreMatrix(typePropagated(g), g.NumRelations)
	return nil
}

// typePropagated returns (T·(Tᵀ·B))ᵀ, column-major: for every entity and
// domain/range column, the number of (type, entity) pairs — over the entity's
// types and the distinct entities of that type observed in the column — that
// vouch for it. Every stored value is a sum of positive counts.
func typePropagated(g *kg.Graph) *sparse.CSR {
	t := typeMatrix(g)
	// typeCounts[t][col] = #distinct entities of type t observed in col.
	typeCounts := sparse.Mul(t.Transpose(), incidence(g))
	return sparse.MulT(t, typeCounts)
}

// Scores returns the fitted score matrix.
func (d *DBHT) Scores() *ScoreMatrix { return d.scores }

// OntoSim assigns all entities of type t to a domain/range if *any* entity
// of type t was observed there (§3.2) — the binary version of DBHT. Very
// high recall, poor reduction rate (the paper's Table 5 shows RR as low as
// 0.113 on YAGO3-10).
type OntoSim struct {
	scores *ScoreMatrix
}

// NewOntoSim returns an OntoSim recommender.
func NewOntoSim() *OntoSim { return &OntoSim{} }

func (*OntoSim) Name() string         { return "OntoSim" }
func (*OntoSim) NeedsTypes() bool     { return true }
func (*OntoSim) SupportsUnseen() bool { return true }

// Fit computes type-reachable membership and binarizes it.
func (o *OntoSim) Fit(g *kg.Graph) error {
	if err := RequireTypes(o.Name(), g); err != nil {
		return err
	}
	// Any positive propagated count means membership, and every stored count
	// is positive: binarize in place.
	xt := typePropagated(g)
	for i := range xt.Val {
		xt.Val[i] = 1
	}
	o.scores = NewScoreMatrix(xt, g.NumRelations)
	return nil
}

// Scores returns the fitted score matrix.
func (o *OntoSim) Scores() *ScoreMatrix { return o.scores }
