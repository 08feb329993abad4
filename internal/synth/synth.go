// Package synth generates synthetic typed knowledge graphs that stand in for
// the paper's benchmark datasets (FB15k, FB15k-237, YAGO3-10, CoDEx-S/M/L,
// ogbl-wikikg2), which are not available in this offline environment.
//
// The generator reproduces the structural properties the paper's phenomena
// depend on:
//
//   - every relation has a typed domain/range signature, so the vast
//     majority of entities are semantically impossible candidates for any
//     given relation — the "easy negatives" that make uniform random
//     evaluation optimistic (§4 of the paper);
//   - entity popularity and type sizes follow Zipf laws, as in real KGs;
//   - relations carry cardinality classes (1-1, 1-M, M-1, M-N), because the
//     paper's critique of PseudoTyped hinges on relations like isMarriedTo
//     whose correct candidates are unseen in training;
//   - a configurable noise rate injects type-violating triples, reproducing
//     the "false easy negatives" of Table 2 (e.g. (MonthOfAugust, gender,
//     male) in FB15k-237's test set).
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kgeval/internal/kg"
)

// Cardinality classifies a relation's functional behaviour.
type Cardinality int

const (
	OneToOne Cardinality = iota
	OneToMany
	ManyToOne
	ManyToMany
)

func (c Cardinality) String() string {
	switch c {
	case OneToOne:
		return "1-1"
	case OneToMany:
		return "1-M"
	case ManyToOne:
		return "M-1"
	default:
		return "M-N"
	}
}

// Config parameterizes a synthetic KG.
type Config struct {
	Name         string
	NumEntities  int
	NumRelations int
	NumTypes     int
	NumTriples   int // target total triple count before dedup

	ValidFrac float64 // fraction of triples held out for validation
	TestFrac  float64 // fraction of triples held out for test

	NoiseRate float64 // fraction of triples with a type-violating endpoint
	ZipfType  float64 // Zipf exponent for type sizes (0 = 1.0)

	Seed int64
}

// Relation describes one generated relation's latent semantics: its typed
// signature and cardinality class. Exposed so experiments can inspect the
// ground truth the recommenders are trying to rediscover.
type Relation struct {
	DomainTypes []int32
	RangeTypes  []int32
	Card        Cardinality
}

// Dataset bundles the generated graph with its latent generation metadata.
type Dataset struct {
	Graph     *kg.Graph
	Relations []Relation
	// NoiseTriples lists the triples (across all splits) whose head or tail
	// violates the relation's type signature. These are the ground-truth
	// "false easy negatives" mined in Table 2.
	NoiseTriples []kg.Triple
}

// Validate checks config sanity.
func (c *Config) Validate() error {
	switch {
	case c.NumEntities <= 1:
		return fmt.Errorf("synth: NumEntities = %d, want > 1", c.NumEntities)
	case c.NumRelations <= 0:
		return fmt.Errorf("synth: NumRelations = %d, want > 0", c.NumRelations)
	case c.NumTypes <= 0:
		return fmt.Errorf("synth: NumTypes = %d, want > 0", c.NumTypes)
	case c.NumTriples <= 0:
		return fmt.Errorf("synth: NumTriples = %d, want > 0", c.NumTriples)
	case c.ValidFrac < 0 || c.TestFrac < 0 || c.ValidFrac+c.TestFrac >= 0.9:
		return fmt.Errorf("synth: invalid split fractions %v/%v", c.ValidFrac, c.TestFrac)
	case c.NoiseRate < 0 || c.NoiseRate > 0.5:
		return fmt.Errorf("synth: NoiseRate = %v, want in [0, 0.5]", c.NoiseRate)
	}
	return nil
}

// The generator's fixed shape, the same for every preset.
const (
	maxTypesPerEntity = 2   // each entity gets 1..maxTypesPerEntity types
	maxSignatureTypes = 2   // relations draw 1..maxSignatureTypes domain and range types
	zipfEntity        = 0.8 // Zipf exponent for entity popularity within a type
	zipfRelation      = 0.9 // Zipf exponent for relation frequency
)

// zipfWeights returns weights w[i] = 1/(i+1)^s.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// cumulative converts weights to a CDF for binary-search sampling.
func cumulative(w []float64) []float64 {
	c := make([]float64, len(w))
	s := 0.0
	for i, x := range w {
		s += x
		c[i] = s
	}
	return c
}

func drawCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64() * cdf[len(cdf)-1]
	return sort.SearchFloat64s(cdf, u)
}

// Generate builds a Dataset from the config. Generation is fully
// deterministic given Config.Seed.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ZipfType == 0 {
		cfg.ZipfType = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// 1. Assign types. Type popularity is Zipf so a few types are large
	// (Person, Location) and most are niche, mirroring Wikidata P31.
	typeCDF := cumulative(zipfWeights(cfg.NumTypes, cfg.ZipfType))
	entityTypes := make([][]int32, cfg.NumEntities)
	typeMembers := make([][]int32, cfg.NumTypes)
	for e := 0; e < cfg.NumEntities; e++ {
		n := 1 + rng.Intn(maxTypesPerEntity)
		seen := map[int32]bool{}
		for len(entityTypes[e]) < n {
			t := int32(drawCDF(rng, typeCDF))
			if seen[t] {
				// Small type pools can stall; accept fewer types.
				break
			}
			seen[t] = true
			entityTypes[e] = append(entityTypes[e], t)
			typeMembers[t] = append(typeMembers[t], int32(e))
		}
		sort.Slice(entityTypes[e], func(i, j int) bool { return entityTypes[e][i] < entityTypes[e][j] })
	}
	// Guarantee every type has at least one member so signatures are usable.
	for t := 0; t < cfg.NumTypes; t++ {
		if len(typeMembers[t]) == 0 {
			e := int32(rng.Intn(cfg.NumEntities))
			typeMembers[t] = append(typeMembers[t], e)
			entityTypes[e] = append(entityTypes[e], int32(t))
			sort.Slice(entityTypes[e], func(i, j int) bool { return entityTypes[e][i] < entityTypes[e][j] })
		}
	}

	// 2. Relation signatures and cardinalities.
	relations := make([]Relation, cfg.NumRelations)
	for r := range relations {
		relations[r] = Relation{
			DomainTypes: drawSignature(rng, typeCDF, maxSignatureTypes),
			RangeTypes:  drawSignature(rng, typeCDF, maxSignatureTypes),
			Card:        drawCardinality(rng),
		}
	}

	// 3. Per-relation candidate pools with Zipf popularity over members.
	domPool := make([]pool, cfg.NumRelations)
	rngPool := make([]pool, cfg.NumRelations)
	for r, rel := range relations {
		domPool[r] = newPool(typeMembers, rel.DomainTypes, zipfEntity)
		rngPool[r] = newPool(typeMembers, rel.RangeTypes, zipfEntity)
	}

	// 4. Generate triples.
	relCDF := cumulative(zipfWeights(cfg.NumRelations, zipfRelation))
	var (
		triples    []kg.Triple
		noise      []kg.Triple
		headOf     = map[uint64]int32{} // (r,h) -> tail for functional relations
		tailOf     = map[uint64]int32{} // (r,t) -> head for inverse-functional relations
		tripleSeen = map[kg.Triple]bool{}
	)
	key := func(r, e int32) uint64 { return uint64(uint32(r))<<32 | uint64(uint32(e)) }
	attempts := 0
	maxAttempts := cfg.NumTriples * 20
	for len(triples) < cfg.NumTriples && attempts < maxAttempts {
		attempts++
		r := int32(drawCDF(rng, relCDF))
		rel := relations[r]
		isNoise := rng.Float64() < cfg.NoiseRate

		h := domPool[r].draw(rng)
		t := rngPool[r].draw(rng)
		if isNoise {
			// Corrupt one endpoint with a uniformly random entity, which with
			// high probability violates the type signature.
			if rng.Intn(2) == 0 {
				h = int32(rng.Intn(cfg.NumEntities))
			} else {
				t = int32(rng.Intn(cfg.NumEntities))
			}
		}
		if h == t {
			continue
		}
		// Enforce cardinality: functional sides reuse their existing partner.
		switch rel.Card {
		case OneToOne:
			if pt, ok := headOf[key(r, h)]; ok {
				t = pt
			} else if ph, ok := tailOf[key(r, t)]; ok {
				h = ph
			}
		case ManyToOne: // each head has exactly one tail (e.g. bornIn)
			if pt, ok := headOf[key(r, h)]; ok {
				t = pt
			}
		case OneToMany: // each tail has exactly one head (e.g. founderOf^-1)
			if ph, ok := tailOf[key(r, t)]; ok {
				h = ph
			}
		}
		tr := kg.Triple{H: h, R: r, T: t}
		if h == t || tripleSeen[tr] {
			continue
		}
		tripleSeen[tr] = true
		headOf[key(r, h)] = t
		tailOf[key(r, t)] = h
		triples = append(triples, tr)
		if isNoise && (!hasAnyType(entityTypes[h], rel.DomainTypes) || !hasAnyType(entityTypes[t], rel.RangeTypes)) {
			noise = append(noise, tr)
		}
	}

	g := &kg.Graph{
		Name:         cfg.Name,
		NumEntities:  cfg.NumEntities,
		NumRelations: cfg.NumRelations,
		NumTypes:     cfg.NumTypes,
		EntityTypes:  entityTypes,
	}
	split(rng, g, triples, cfg.ValidFrac, cfg.TestFrac)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid graph: %v", err)
	}
	return &Dataset{Graph: g, Relations: relations, NoiseTriples: noise}, nil
}

// drawSignature samples 1..max distinct types, Zipf-weighted.
func drawSignature(rng *rand.Rand, typeCDF []float64, max int) []int32 {
	n := 1 + rng.Intn(max)
	seen := map[int32]bool{}
	var out []int32
	for tries := 0; len(out) < n && tries < 20; tries++ {
		t := int32(drawCDF(rng, typeCDF))
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func drawCardinality(rng *rand.Rand) Cardinality {
	// Rough benchmark mix: mostly M-N, with a meaningful functional share.
	u := rng.Float64()
	switch {
	case u < 0.10:
		return OneToOne
	case u < 0.30:
		return OneToMany
	case u < 0.50:
		return ManyToOne
	default:
		return ManyToMany
	}
}

func hasAnyType(entity []int32, sig []int32) bool {
	for _, t := range sig {
		i := sort.Search(len(entity), func(i int) bool { return entity[i] >= t })
		if i < len(entity) && entity[i] == t {
			return true
		}
	}
	return false
}

// pool is a Zipf-weighted sampling pool over the union of some types'
// members.
type pool struct {
	members []int32
	cdf     []float64
}

func newPool(typeMembers [][]int32, sig []int32, zipfS float64) pool {
	seen := map[int32]bool{}
	var members []int32
	for _, t := range sig {
		for _, e := range typeMembers[t] {
			if !seen[e] {
				seen[e] = true
				members = append(members, e)
			}
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return pool{members: members, cdf: cumulative(zipfWeights(len(members), zipfS))}
}

func (p pool) draw(rng *rand.Rand) int32 {
	if len(p.members) == 0 {
		return 0
	}
	return p.members[drawCDF(rng, p.cdf)]
}

// split shuffles triples and assigns them to train/valid/test, then repairs
// the split so that every entity and relation occurring in valid or test is
// seen at least once in train (the transductive-KGC convention all the
// paper's datasets follow).
func split(rng *rand.Rand, g *kg.Graph, triples []kg.Triple, validFrac, testFrac float64) {
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	nValid := int(float64(len(triples)) * validFrac)
	nTest := int(float64(len(triples)) * testFrac)
	nTrain := len(triples) - nValid - nTest

	train := append([]kg.Triple(nil), triples[:nTrain]...)
	valid := append([]kg.Triple(nil), triples[nTrain:nTrain+nValid]...)
	test := append([]kg.Triple(nil), triples[nTrain+nValid:]...)

	entSeen := make([]bool, g.NumEntities)
	relSeen := make([]bool, g.NumRelations)
	mark := func(t kg.Triple) {
		entSeen[t.H] = true
		entSeen[t.T] = true
		relSeen[t.R] = true
	}
	for _, t := range train {
		mark(t)
	}
	repair := func(split []kg.Triple) []kg.Triple {
		out := split[:0]
		for _, t := range split {
			if !entSeen[t.H] || !entSeen[t.T] || !relSeen[t.R] {
				train = append(train, t)
				mark(t)
			} else {
				out = append(out, t)
			}
		}
		return out
	}
	// Two passes: moving a triple into train can legitimize later ones.
	valid = repair(valid)
	test = repair(test)
	g.Train, g.Valid, g.Test = train, valid, test
}
