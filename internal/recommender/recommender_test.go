package recommender

import (
	"math"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/synth"
)

// figure2Graph reproduces the paper's Figure 2 toy example (from Youn et
// al.): Melinda French, Bill Gates, Jennifer Gates, Microsoft, Washington,
// United States with relations divorcedWith, founderOf, bornIn, locatedIn,
// daughterOf.
const (
	melinda = iota
	bill
	jennifer
	microsoft
	washington
	unitedStates
)

const (
	divorcedWith = iota
	founderOf
	bornIn
	locatedIn
	daughterOf
)

func figure2Graph() *kg.Graph {
	g := &kg.Graph{
		Name:         "figure2",
		NumEntities:  6,
		NumRelations: 5,
		NumTypes:     3, // People, Organization, Location
		Train: []kg.Triple{
			{H: melinda, R: divorcedWith, T: bill},
			{H: bill, R: divorcedWith, T: melinda},
			{H: bill, R: founderOf, T: microsoft},
			{H: bill, R: bornIn, T: washington},
			{H: jennifer, R: daughterOf, T: melinda},
			{H: jennifer, R: daughterOf, T: bill},
			{H: jennifer, R: bornIn, T: washington},
			{H: microsoft, R: locatedIn, T: unitedStates},
			{H: washington, R: locatedIn, T: unitedStates},
		},
		Test: []kg.Triple{{H: melinda, R: bornIn, T: washington}},
		EntityTypes: [][]int32{
			{0}, {0}, {0}, {1}, {2}, {2},
		},
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

func TestPTFigure2(t *testing.T) {
	g := figure2Graph()
	p := NewPT()
	if err := p.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := p.Scores()
	// Observed domain of bornIn: bill, jennifer. Melinda unseen → 0.
	if s.Score(bill, DomainCol(bornIn, 5)) != 1 {
		t.Error("bill must be in observed domain of bornIn")
	}
	if s.Score(melinda, DomainCol(bornIn, 5)) != 0 {
		t.Error("PT must give melinda zero for domain of bornIn (unseen)")
	}
	if p.SupportsUnseen() {
		t.Error("PT.SupportsUnseen() = true, want false")
	}
}

func TestLWDFigure2GeneralizesToUnseen(t *testing.T) {
	g := figure2Graph()
	l := NewLWD()
	if err := l.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := l.Scores()
	// The paper's motivating property: melinda was never seen as a head of
	// bornIn, but she co-occurs with domains that co-occur with bornIn's
	// domain (divorcedWith, daughterOf-range), so L-WD must score her > 0.
	if got := s.Score(melinda, DomainCol(bornIn, 5)); got <= 0 {
		t.Fatalf("L-WD score for melinda in domain(bornIn) = %v, want > 0", got)
	}
	// Microsoft is an organization; it must score 0 for the domain of
	// divorcedWith (no co-occurrence path from its columns).
	if got := s.Score(microsoft, DomainCol(divorcedWith, 5)); got != 0 {
		t.Fatalf("L-WD score for microsoft in domain(divorcedWith) = %v, want 0", got)
	}
	// Sanity: observed members keep strong scores.
	if s.Score(bill, DomainCol(founderOf, 5)) <= 0 {
		t.Fatal("observed member scored 0")
	}
}

func TestLWDScoresPeopleAboveLocationsForPersonRelations(t *testing.T) {
	g := figure2Graph()
	l := NewLWD()
	if err := l.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := l.Scores()
	col := DomainCol(bornIn, 5)
	for _, person := range []int32{bill, jennifer} {
		for _, place := range []int32{unitedStates} {
			if s.Score(person, col) <= s.Score(place, col) {
				t.Fatalf("person %d (%.3f) must outscore location %d (%.3f) for domain(bornIn)",
					person, s.Score(person, col), place, s.Score(place, col))
			}
		}
	}
}

func TestLWDTUsesTypes(t *testing.T) {
	g := figure2Graph()
	l := NewLWDT()
	if err := l.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := l.Scores()
	if s.byCol.NumRows != 2*g.NumRelations {
		t.Fatalf("L-WD-T must truncate to 2|R| columns, got %d", s.byCol.NumRows)
	}
	// Type sharing must boost melinda for domain(bornIn) — she shares type
	// People with the observed members.
	if got := s.Score(melinda, DomainCol(bornIn, 5)); got <= 0 {
		t.Fatalf("L-WD-T melinda domain(bornIn) = %v, want > 0", got)
	}
	untyped := &kg.Graph{Name: "untyped", NumEntities: 2, NumRelations: 1, Train: []kg.Triple{{H: 0, R: 0, T: 1}}}
	if err := NewLWDT().Fit(untyped); err == nil {
		t.Fatal("L-WD-T on untyped graph must error")
	}
}

func TestDBHCounts(t *testing.T) {
	g := figure2Graph()
	d := NewDBH()
	if err := d.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := d.Scores()
	// jennifer is head of daughterOf twice.
	if got := s.Score(jennifer, DomainCol(daughterOf, 5)); got != 2 {
		t.Fatalf("DBH jennifer domain(daughterOf) = %v, want 2", got)
	}
	// unitedStates is tail of locatedIn twice.
	if got := s.Score(unitedStates, RangeCol(locatedIn, 5)); got != 2 {
		t.Fatalf("DBH US range(locatedIn) = %v, want 2", got)
	}
	if got := s.Score(melinda, DomainCol(bornIn, 5)); got != 0 {
		t.Fatalf("DBH melinda domain(bornIn) = %v, want 0 (unseen)", got)
	}
}

func TestDBHTGeneralizesThroughTypes(t *testing.T) {
	g := figure2Graph()
	d := NewDBHT()
	if err := d.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := d.Scores()
	// melinda (People) must receive domain(bornIn) mass from bill/jennifer.
	if got := s.Score(melinda, DomainCol(bornIn, 5)); got != 2 {
		t.Fatalf("DBH-T melinda domain(bornIn) = %v, want 2 (two People seen as heads)", got)
	}
	// microsoft (Organization) must not.
	if got := s.Score(microsoft, DomainCol(bornIn, 5)); got != 0 {
		t.Fatalf("DBH-T microsoft domain(bornIn) = %v, want 0", got)
	}
	if err := NewDBHT().Fit(&kg.Graph{NumEntities: 1, NumRelations: 1, Train: []kg.Triple{}}); err == nil {
		t.Fatal("DBH-T on untyped graph must error")
	}
}

func TestOntoSimBinary(t *testing.T) {
	g := figure2Graph()
	o := NewOntoSim()
	if err := o.Fit(g); err != nil {
		t.Fatal(err)
	}
	s := o.Scores()
	if got := s.Score(melinda, DomainCol(bornIn, 5)); got != 1 {
		t.Fatalf("OntoSim melinda domain(bornIn) = %v, want 1", got)
	}
	if got := s.Score(jennifer, DomainCol(bornIn, 5)); got != 1 {
		t.Fatalf("OntoSim jennifer domain(bornIn) = %v, want 1 (binary, not counts)", got)
	}
	if got := s.Score(microsoft, DomainCol(bornIn, 5)); got != 0 {
		t.Fatalf("OntoSim microsoft domain(bornIn) = %v, want 0", got)
	}
}

func TestPIESimFitsAndRanksTypesSensibly(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Name: "pie-test", NumEntities: 200, NumRelations: 8, NumTypes: 8,
		NumTriples: 2500, ValidFrac: 0.05, TestFrac: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPIESim(1)
	if err := p.Fit(ds.Graph); err != nil {
		t.Fatal(err)
	}
	cs := BuildStatic(p.Scores(), ds.Graph, DefaultStaticOpts())
	q := EvaluateCandidates(cs, ds.Graph)
	if q.CRTest < 0.5 {
		t.Fatalf("PIE-Sim CR Test = %.3f, want ≥ 0.5", q.CRTest)
	}
	if q.RR <= 0 {
		t.Fatalf("PIE-Sim RR = %.3f, want > 0", q.RR)
	}
}

func TestScoreMatrixEasyNegatives(t *testing.T) {
	g := figure2Graph()
	l := NewLWD()
	if err := l.Fit(g); err != nil {
		t.Fatal(err)
	}
	count, frac := l.Scores().EasyNegatives()
	if count <= 0 || frac <= 0 || frac >= 1 {
		t.Fatalf("EasyNegatives = (%d, %v), want positive count and fraction in (0,1)", count, frac)
	}
	total := g.NumEntities * 2 * g.NumRelations
	if count+l.Scores().NNZ() != total {
		t.Fatalf("easy negatives (%d) + nnz (%d) != total (%d)", count, l.Scores().NNZ(), total)
	}
}

func TestFalseEasyNegatives(t *testing.T) {
	g := figure2Graph()
	l := NewLWD()
	if err := l.Fit(g); err != nil {
		t.Fatal(err)
	}
	// The test triple (melinda, bornIn, washington) involves entities with
	// nonzero L-WD scores, so it must NOT be a false easy negative.
	if fen := FalseEasyNegatives(l.Scores(), g.Test); len(fen) != 0 {
		t.Fatalf("false easy negatives = %v, want none", fen)
	}
	// A type-violating triple must be flagged.
	bad := []kg.Triple{{H: unitedStates, R: daughterOf, T: microsoft}}
	if fen := FalseEasyNegatives(l.Scores(), bad); len(fen) != 1 {
		t.Fatalf("type-violating triple not flagged: %v", fen)
	}
}

func TestBuildStaticProperties(t *testing.T) {
	g := figure2Graph()
	l := NewLWD()
	if err := l.Fit(g); err != nil {
		t.Fatal(err)
	}
	cs := BuildStatic(l.Scores(), g, DefaultStaticOpts())
	if len(cs.Sets) != 2*g.NumRelations {
		t.Fatalf("got %d sets, want %d", len(cs.Sets), 2*g.NumRelations)
	}
	// With IncludeSeen, every train-observed member must be contained.
	domains, ranges := oracleDomainsRanges(g.Train, g.NumRelations)
	for r := 0; r < g.NumRelations; r++ {
		for _, e := range domains[r] {
			if !cs.Contains(DomainCol(r, g.NumRelations), e) {
				t.Fatalf("seen domain member %d of relation %d missing from static set", e, r)
			}
		}
		for _, e := range ranges[r] {
			if !cs.Contains(RangeCol(r, g.NumRelations), e) {
				t.Fatalf("seen range member %d of relation %d missing from static set", e, r)
			}
		}
	}
	// Sets must be sorted and duplicate-free.
	for col, set := range cs.Sets {
		for i := 1; i < len(set); i++ {
			if set[i] <= set[i-1] {
				t.Fatalf("column %d set not strictly sorted: %v", col, set)
			}
		}
	}
}

func TestBuildStaticWithoutSeen(t *testing.T) {
	g := figure2Graph()
	l := NewLWD()
	if err := l.Fit(g); err != nil {
		t.Fatal(err)
	}
	with := BuildStatic(l.Scores(), g, StaticOpts{IncludeSeen: true})
	without := BuildStatic(l.Scores(), g, StaticOpts{IncludeSeen: false})
	for col := range with.Sets {
		if len(without.Sets[col]) > len(with.Sets[col]) {
			t.Fatalf("column %d: IncludeSeen shrank the set (%d > %d)",
				col, len(without.Sets[col]), len(with.Sets[col]))
		}
	}
}

// EvaluateCandidates walks a map of test pairs, whose order changes from
// call to call; its result must not. On wikikg2-sim's L-WD sets a sum of
// float64 terms in map order gave 15 bit patterns of RR in 20 calls.
func TestEvaluateCandidatesIsRepeatable(t *testing.T) {
	g := generate(t, synth.WikiKG2Sim())
	rec := NewLWD()
	if err := rec.Fit(g); err != nil {
		t.Fatal(err)
	}
	cs := BuildStatic(rec.Scores(), g, DefaultStaticOpts())
	first := EvaluateCandidates(cs, g)
	for call := 1; call < 20; call++ {
		q := EvaluateCandidates(cs, g)
		for _, p := range [][2]float64{{q.RR, first.RR}, {q.CRTest, first.CRTest}, {q.CRUnseen, first.CRUnseen}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("call %d: %+v, first call %+v", call, q, first)
			}
		}
		if q.Pairs != first.Pairs || q.UnseenPairs != first.UnseenPairs {
			t.Fatalf("call %d: %+v, first call %+v", call, q, first)
		}
	}
}

// On a synthetic typed dataset the paper's Table 5 ordering must hold:
// PT has CR Unseen = 0; type-aware and L-WD methods recover unseen pairs;
// OntoSim trades RR for recall. Every name ByName accepts is fitted, and
// each recommender's Table 1 flag must describe its matrix: a nonzero score
// outside the observed domains and ranges exactly when SupportsUnseen.
func TestTable5ShapeOnSyntheticData(t *testing.T) {
	ds, err := synth.Generate(synth.Config{
		Name: "t5", NumEntities: 500, NumRelations: 12, NumTypes: 12,
		NumTriples: 6000, ValidFrac: 0.06, TestFrac: 0.06, NoiseRate: 0.01, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	seen := incidenceT(g, false)
	fit := func(name string) CandidateQuality {
		r, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := ByName(r.Name(), 1); err != nil || again.Name() != r.Name() {
			t.Fatalf("%s: Name() %q does not round-trip through ByName", name, r.Name())
		}
		if err := r.Fit(g); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		unseen := false
		for col := 0; col < 2*g.NumRelations; col++ {
			ids, scores := r.Scores().Column(col)
			for i, e := range ids {
				if scores[i] != 0 && seen.At(col, int(e)) == 0 {
					unseen = true
				}
			}
		}
		if unseen != r.SupportsUnseen() {
			t.Fatalf("%s: SupportsUnseen() = %v, but a nonzero score off the observed domains/ranges: %v", name, r.SupportsUnseen(), unseen)
		}
		return EvaluateCandidates(BuildStatic(r.Scores(), g, DefaultStaticOpts()), g)
	}
	q := map[string]CandidateQuality{}
	for _, name := range []string{"PT", "DBH", "DBH-T", "OntoSim", "PIE", "PIE-Sim", "L-WD", "L-WD-T"} {
		q[name] = fit(name)
	}
	pt, lwd, onto, dbht := q["PT"], q["L-WD"], q["OntoSim"], q["DBH-T"]

	if pt.CRUnseen != 0 {
		t.Fatalf("PT CR Unseen = %v, want exactly 0", pt.CRUnseen)
	}
	if lwd.CRUnseen <= 0.3 {
		t.Fatalf("L-WD CR Unseen = %v, want > 0.3", lwd.CRUnseen)
	}
	if dbht.CRUnseen <= 0.3 {
		t.Fatalf("DBH-T CR Unseen = %v, want > 0.3", dbht.CRUnseen)
	}
	if onto.CRTest < lwd.CRTest-0.05 {
		t.Fatalf("OntoSim CR Test (%v) should be near-top (L-WD %v)", onto.CRTest, lwd.CRTest)
	}
	if onto.RR >= lwd.RR {
		t.Fatalf("OntoSim RR (%v) must be worse than L-WD RR (%v)", onto.RR, lwd.RR)
	}
	if pt.RR <= lwd.RR-0.05 {
		t.Fatalf("PT RR (%v) should be at least L-WD-like (L-WD %v)", pt.RR, lwd.RR)
	}
}

func TestDomainRangeColHelpers(t *testing.T) {
	if DomainCol(3, 10) != 3 {
		t.Error("DomainCol(3,10) != 3")
	}
	if RangeCol(3, 10) != 13 {
		t.Error("RangeCol(3,10) != 13")
	}
}

func TestScoreMatrixColumnAccess(t *testing.T) {
	g := figure2Graph()
	d := NewDBH()
	if err := d.Fit(g); err != nil {
		t.Fatal(err)
	}
	ids, scores := d.Scores().Column(DomainCol(daughterOf, 5))
	if len(ids) != 1 || ids[0] != jennifer || scores[0] != 2 {
		t.Fatalf("Column(domain daughterOf) = %v %v, want [jennifer] [2]", ids, scores)
	}
}
