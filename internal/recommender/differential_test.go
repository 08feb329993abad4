package recommender

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/sparse"
	"kgeval/internal/synth"
)

// oracleFit fits recommender name with the reference kernels of
// oracle_test.go.
func oracleFit(name string, g *kg.Graph) (*ScoreMatrix, error) {
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
		return oracleFitPIE(NewPIESim(1), g)
	}
	return nil, fmt.Errorf("no oracle for %q", name)
}

// sameCSR compares two matrices exactly: same pattern and every value ==.
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
	if !slices.Equal(got.Val, want.Val) {
		t.Fatalf("%s: Val differs", what)
	}
}

// Names lists the recommenders ByName accepts, in the paper's Table 1 order.
func Names() []string {
	return []string{"PT", "DBH", "DBH-T", "OntoSim", "PIE", "L-WD", "L-WD-T"}
}

// TestFitAndBuildStaticMatchOracle is the bit-identity gate of the fast
// recommender path: on every synth preset and for every recommender, the
// fitted score matrix (both orientations), the chosen thresholds and the
// static sets equal what the pre-rebuild implementations produce, whatever
// the worker count.
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
				want, err := oracleFit(name, g)
				if err != nil {
					t.Fatal(err)
				}
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
						sameCSR(t, what+" scores by row", rec.Scores().byRow, want.byRow)
						sameCSR(t, what+" scores by column", rec.Scores().byCol, want.byCol)
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
