package recommender

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/sparse"
	"kgeval/internal/synth"
)

// oracleFit fits recommender name with the reference kernels of
// oracle_test.go and returns X as they build it: row-major, |E|×2|R|, with
// explicit values.
func oracleFit(name string, g *kg.Graph) (*sparse.CSR, error) {
	x, err := oracleFitKernels(name, g)
	if err == nil && x.Binary() {
		x.Val = make([]float64, x.NNZ())
		for i := range x.Val {
			x.Val[i] = 1
		}
	}
	return x, err
}

func oracleFitKernels(name string, g *kg.Graph) (*sparse.CSR, error) {
	switch name {
	case "PT":
		return oracleFitPT(g)
	case "DBH":
		return oracleFitDBH(g)
	case "DBH-T":
		return oracleFitDBHT(g)
	case "OntoSim":
		return oracleFitOntoSim(g)
	case "L-WD":
		return oracleFitLWD(g)
	case "L-WD-T":
		return oracleFitLWDT(g)
	case "PIE":
		return oracleFitPIE(1, g)
	}
	return nil, fmt.Errorf("no oracle for %q", name)
}

// sameCSR compares two matrices exactly: same pattern and every value's bits.
func sameCSR(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.NumRows, got.NumCols, want.NumRows, want.NumCols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		t.Fatalf("%s: RowPtr differs", what)
	}
	if !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: ColIdx differs", what)
	}
	if !slices.EqualFunc(got.Val, want.Val, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("%s: Val differs", what)
	}
}

// Names lists the recommenders ByName accepts, in the paper's Table 1 order.
func Names() []string {
	return []string{"PT", "DBH", "DBH-T", "OntoSim", "PIE", "L-WD", "L-WD-T"}
}

// TestFitAndBuildStaticMatchOracle is the bit-identity gate of the fast
// recommender path: on every synth preset and for every recommender, the
// fitted score matrix, the chosen thresholds and the static sets equal what
// the pre-rebuild implementations produce, whatever the worker count. The
// oracle's score matrix is row-major; the fitted one is stored column-major
// only, so it is compared in both orientations by transposing here: the
// oracle's transpose against what is stored, and what is stored transposed
// back against the oracle.
func TestFitAndBuildStaticMatchOracle(t *testing.T) {
	presets := synth.AllPresets()
	if testing.Short() {
		presets = []synth.Config{synth.CoDExSSim()}
	}
	for _, cfg := range presets {
		ds, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		for _, name := range Names() {
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				wantRows, err := oracleFit(name, g)
				if err != nil {
					t.Fatal(err)
				}
				wantCols := wantRows.Transpose()
				want := NewScoreMatrix(wantCols, g.NumRelations)
				staticOpts := []StaticOpts{{IncludeSeen: true}, {IncludeSeen: false}}
				wantSets := make([]*CandidateSets, len(staticOpts))
				for i, opts := range staticOpts {
					wantSets[i] = oracleBuildStatic(want, g, opts)
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
				var fitted Recommender
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					what := fmt.Sprintf("GOMAXPROCS=%d", procs)
					// PIE's Fit is serial SGD and by far the slowest here;
					// it is fitted once and only discretized per setting.
					if fitted == nil || name != "PIE" {
						rec, err := ByName(name, 1)
						if err != nil {
							t.Fatal(err)
						}
						if err := rec.Fit(g); err != nil {
							t.Fatal(err)
						}
						fitted = rec
						sameCSR(t, what+" scores by column", rec.Scores().byCol, wantCols)
						sameCSR(t, what+" scores by row", rec.Scores().byCol.Transpose(), wantRows)
					}
					for i, opts := range staticOpts {
						sameSets(t, what, BuildStatic(fitted.Scores(), g, opts), wantSets[i])
					}
				}
			})
		}
	}
}

func sameSets(t *testing.T, what string, got, want *CandidateSets) {
	t.Helper()
	if got.NumEntities != want.NumEntities || got.NumRelations != want.NumRelations {
		t.Fatalf("%s: sets header differs", what)
	}
	if !slices.Equal(got.Thresholds, want.Thresholds) {
		t.Fatalf("%s: Thresholds differ", what)
	}
	if len(got.Sets) != len(want.Sets) {
		t.Fatalf("%s: %d sets, want %d", what, len(got.Sets), len(want.Sets))
	}
	for col := range want.Sets {
		if !slices.Equal(got.Sets[col], want.Sets[col]) {
			t.Fatalf("%s: Sets[%d] differs (%d vs %d members)", what, col, len(got.Sets[col]), len(want.Sets[col]))
		}
	}
}

// TestIncidenceTMatchesOracle holds the one builder of the train-observed
// domains and ranges — PT's and DBH's score matrix, and BuildStatic's known
// members — to the sort-and-deduplicate extraction it replaced: row r is
// relation r's domain and row |R|+r its range, ascending and duplicate-free,
// and with counts every value is the number of triples behind the cell.
func TestIncidenceTMatchesOracle(t *testing.T) {
	// The case kg's own test of the extraction held, literally: domains at
	// column r, ranges at column |R|+r.
	small := &kg.Graph{NumEntities: 6, NumRelations: 2, Train: []kg.Triple{{H: 0, R: 0, T: 1}, {H: 2, R: 0, T: 1}, {H: 0, R: 0, T: 3}, {H: 4, R: 1, T: 5}}}
	for col, want := range [][]int32{{0, 2}, {4}, {1, 3}, {5}} {
		if got, _ := incidenceT(small, false).Row(col); !slices.Equal(got, want) {
			t.Fatalf("column %d holds %v, want %v", col, got, want)
		}
	}
	graphs := []*kg.Graph{
		// Repeated heads and tails, an entity in both roles, a relation with
		// a single triple, and a relation and entities never used.
		{Name: "hand", NumEntities: 7, NumRelations: 3, Train: []kg.Triple{{H: 0, R: 0, T: 1}, {H: 2, R: 0, T: 1}, {H: 0, R: 0, T: 3}, {H: 4, R: 1, T: 5}, {H: 0, R: 0, T: 1}, {H: 1, R: 0, T: 0}}},
		{Name: "empty", NumEntities: 3, NumRelations: 2},
		figure2Graph(),
	}
	presets := synth.AllPresets()
	if testing.Short() {
		presets = presets[:1]
	}
	for _, cfg := range presets {
		graphs = append(graphs, generate(t, cfg))
	}
	for _, g := range graphs {
		domains, ranges := oracleDomainsRanges(g.Train, g.NumRelations)
		for _, counts := range []bool{false, true} {
			bt := incidenceT(g, counts)
			if bt.NumRows != 2*g.NumRelations || bt.NumCols != g.NumEntities || bt.Binary() == counts {
				t.Fatalf("%s: incidenceT(counts=%v) is %dx%d, binary=%v", g.Name, counts, bt.NumRows, bt.NumCols, bt.Binary())
			}
			for r := 0; r < g.NumRelations; r++ {
				for col, want := range map[int][]int32{DomainCol(r, g.NumRelations): domains[r], RangeCol(r, g.NumRelations): ranges[r]} {
					if got, _ := bt.Row(col); !slices.Equal(got, want) {
						t.Fatalf("%s: column %d holds %v, want %v", g.Name, col, got, want)
					}
				}
			}
			if !counts {
				continue
			}
			triples := 0.0
			for _, v := range bt.Val {
				triples += v
			}
			if int(triples) != 2*len(g.Train) {
				t.Fatalf("%s: counts sum to %v, want %d", g.Name, triples, 2*len(g.Train))
			}
		}
	}
}

// TestScoreMatchesDenseOracle reads every cell of every recommender's score
// matrix through Score — a binary search in the stored column — and requires
// the oracle's value where it stores one and 0 where it does not.
func TestScoreMatchesDenseOracle(t *testing.T) {
	g := generate(t, synth.CoDExSSim())
	for _, name := range Names() {
		want, err := oracleFit(name, g)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Fit(g); err != nil {
			t.Fatal(err)
		}
		dense := make([]float64, want.NumCols)
		present, absent := 0, 0
		for e := 0; e < g.NumEntities; e++ {
			clear(dense)
			cols, vals := want.Row(e)
			for i, c := range cols {
				dense[c] = vals[i]
			}
			present += len(cols)
			absent += len(dense) - len(cols)
			for col, v := range dense {
				if got := rec.Scores().Score(int32(e), col); math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("%s: Score(%d, %d) = %v, want %v", name, e, col, got, v)
				}
			}
		}
		if present == 0 || absent == 0 {
			t.Fatalf("%s: %d present and %d absent cells checked; want both", name, present, absent)
		}
	}
}
