package recommender

import (
	"kgeval/internal/kg"
	"kgeval/internal/sparse"
)

// NewPT returns the PseudoTyped heuristic (Krompass et al.; PyKEEN
// terminology): the domain/range of a relation is exactly the set of
// entities observed in that position in training. Binary scores; cannot
// propose unseen candidates, which is its documented weakness on
// 1-1/1-M/M-1 relations.
func NewPT() Recommender {
	return &method{name: "PT", build: func(_ *kg.Graph, bt *sparse.CSR) *sparse.CSR { return bt }}
}

// NewDBH returns the Degree-Based Heuristic of Chen et al. (OGB-LSC): an
// entity's score for the domain of r is the number of times it was observed
// as a head of r in training. Same support as PT (upper-bounded by PT in
// recall), but graded scores make it usable for probabilistic sampling.
func NewDBH() Recommender {
	return &method{name: "DBH", counts: true, build: func(_ *kg.Graph, bt *sparse.CSR) *sparse.CSR { return bt }}
}

// NewDBHT returns DBH generalized through entity types (§3.2): every
// observation of a type-t entity as head of r adds 1 to the domain score of
// *all* type-t entities. Computed as T·(Tᵀ·B) with T the entity-type matrix
// and B the distinct-pair incidence matrix. Unlike DBH it can score unseen
// candidates.
func NewDBHT() Recommender {
	return &method{name: "DBH-T", types: true, unseen: true, build: typePropagated}
}

// typePropagated returns (T·(Tᵀ·B))ᵀ = (Tᵀ·B)ᵀ·Tᵀ, column-major, given the
// binary Bᵀ: for every entity and domain/range column, the number of (type,
// entity) pairs — over the entity's types and the distinct entities of that
// type observed in the column — that vouch for it. Every stored value is a
// sum of positive counts.
func typePropagated(g *kg.Graph, bt *sparse.CSR) *sparse.CSR {
	t := typeMatrix(g)
	// typeCountsT[col][t] = #distinct entities of type t observed in col,
	// formed as Bᵀ·T: a count is a sum of ones, exact in any order.
	typeCountsT := sparse.Mul(bt, t)
	return sparse.Mul(typeCountsT, t.Transpose())
}

// NewOntoSim returns OntoSim, which assigns all entities of type t to a
// domain/range if *any* entity of type t was observed there (§3.2) — the
// binary version of DBH-T. Very high recall, poor reduction rate (the
// paper's Table 5 shows RR as low as 0.113 on YAGO3-10).
func NewOntoSim() Recommender {
	return &method{name: "OntoSim", types: true, unseen: true, build: func(g *kg.Graph, bt *sparse.CSR) *sparse.CSR {
		// Any positive propagated count means membership, and every stored
		// count is positive: binarize in place.
		xt := typePropagated(g, bt)
		for i := range xt.Val {
			xt.Val[i] = 1
		}
		return xt
	}}
}
