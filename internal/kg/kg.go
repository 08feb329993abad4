// Package kg provides the knowledge-graph substrate used throughout kgeval:
// integer-encoded triples, graphs with train/valid/test splits, entity type
// assignments, and the indexes required by the filtered ranking protocol.
//
// Entities, relations and types are dense int32 identifiers in
// [0, NumEntities), [0, NumRelations) and [0, NumTypes). All higher-level
// packages (recommenders, models, evaluation) operate on these ids; string
// labels are optional and carried only for display.
package kg

import (
	"fmt"
	"sort"
)

// Triple is a single (head, relation, tail) edge of a knowledge graph.
type Triple struct {
	H, R, T int32
}

// Graph is a knowledge graph with its standard benchmark splits.
//
// EntityTypes may be nil (untyped KG); when present, EntityTypes[e] holds
// the sorted, duplicate-free type ids of entity e (entities may have zero
// or many types, mirroring Wikidata's P31 statements).
type Graph struct {
	Name         string
	NumEntities  int
	NumRelations int
	NumTypes     int

	Train []Triple
	Valid []Triple
	Test  []Triple

	EntityTypes [][]int32
}

// NumTriples returns the total number of triples across all splits.
func (g *Graph) NumTriples() int {
	return len(g.Train) + len(g.Valid) + len(g.Test)
}

// AllTriples returns the concatenation of all splits in a fresh slice.
func (g *Graph) AllTriples() []Triple {
	out := make([]Triple, 0, g.NumTriples())
	out = append(out, g.Train...)
	out = append(out, g.Valid...)
	out = append(out, g.Test...)
	return out
}

// Validate checks that every id in every split and in the type assignment is
// within the declared bounds, returning a descriptive error for the first
// violation found.
func (g *Graph) Validate() error {
	check := func(split string, ts []Triple) error {
		for i, t := range ts {
			if t.H < 0 || int(t.H) >= g.NumEntities {
				return fmt.Errorf("kg: %s[%d]: head %d out of range [0,%d)", split, i, t.H, g.NumEntities)
			}
			if t.T < 0 || int(t.T) >= g.NumEntities {
				return fmt.Errorf("kg: %s[%d]: tail %d out of range [0,%d)", split, i, t.T, g.NumEntities)
			}
			if t.R < 0 || int(t.R) >= g.NumRelations {
				return fmt.Errorf("kg: %s[%d]: relation %d out of range [0,%d)", split, i, t.R, g.NumRelations)
			}
		}
		return nil
	}
	if err := check("train", g.Train); err != nil {
		return err
	}
	if err := check("valid", g.Valid); err != nil {
		return err
	}
	if err := check("test", g.Test); err != nil {
		return err
	}
	if g.EntityTypes != nil {
		if len(g.EntityTypes) != g.NumEntities {
			return fmt.Errorf("kg: EntityTypes has %d rows, want %d", len(g.EntityTypes), g.NumEntities)
		}
		for e, ts := range g.EntityTypes {
			for _, t := range ts {
				if t < 0 || int(t) >= g.NumTypes {
					return fmt.Errorf("kg: entity %d: type %d out of range [0,%d)", e, t, g.NumTypes)
				}
			}
			if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
				return fmt.Errorf("kg: entity %d: type list not sorted", e)
			}
		}
	}
	return nil
}
