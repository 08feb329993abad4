package kg

// Stats summarizes a graph in the shape of the paper's Table 4.
type Stats struct {
	Name         string
	NumEntities  int
	NumRelations int
	NumTypes     int
	NumTypePairs int // |TS|: total (entity, type) assignments
	Train        int
	Valid        int
	Test         int
	TrainPairs   int // distinct (h,r) + (r,t) pairs in train
	TestPairs    int // distinct (h,r) + (r,t) pairs in test
}

// ComputeStats derives Table-4-style statistics from a graph.
func ComputeStats(g *Graph) Stats {
	s := Stats{
		Name:         g.Name,
		NumEntities:  g.NumEntities,
		NumRelations: g.NumRelations,
		NumTypes:     g.NumTypes,
		Train:        len(g.Train),
		Valid:        len(g.Valid),
		Test:         len(g.Test),
	}
	for _, ts := range g.EntityTypes {
		s.NumTypePairs += len(ts)
	}
	hr, rt := DistinctQueryPairs(g.Train)
	s.TrainPairs = hr + rt
	hr, rt = DistinctQueryPairs(g.Test)
	s.TestPairs = hr + rt
	return s
}

// DistinctQueryPairs counts the distinct (h,r)- and (r,t)-pairs in a split.
// Each such pair is one ranking query in the standard protocol, and one
// sampling event for an entity-aware candidate generator (Table 3).
func DistinctQueryPairs(triples []Triple) (hrPairs, rtPairs int) {
	hr := make(map[uint64]struct{}, len(triples))
	rt := make(map[uint64]struct{}, len(triples))
	for _, t := range triples {
		hr[pairKey(t.H, t.R)] = struct{}{}
		rt[pairKey(t.T, t.R)] = struct{}{}
	}
	return len(hr), len(rt)
}

// DistinctRelations counts the relations that actually appear in a split.
func DistinctRelations(triples []Triple) int {
	seen := make(map[int32]struct{})
	for _, t := range triples {
		seen[t.R] = struct{}{}
	}
	return len(seen)
}
