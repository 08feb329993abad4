package eval

import (
	"fmt"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
)

// int8Oracle is the per-query view of the Int8 lane: a plain Model (no batch
// contract visible) whose three methods read candidates and answers from
// the model's Int8 store one row at a time. The naive oracle scores through
// it, so the reference side shares nothing with the batch executor but the
// store — no relation chunks, no multi-row tiles, no four-row kernel path.
// The scorer behind it is pinned bit for bit against store.Gather plus plain
// loops by kgc's TestTileLaneMatchesGatherOracle.
type int8Oracle struct{ bs kgc.BatchScorer }

func newInt8Oracle(m kgc.Model) int8Oracle {
	return int8Oracle{kgc.NewBatchScorer(m, kgc.BatchOptions{Precision: store.Int8, Tile: 1})}
}

func (o int8Oracle) Name() string                                  { return o.bs.Name() }
func (o int8Oracle) Dim() int                                      { return o.bs.Dim() }
func (o int8Oracle) ScoreTriple(h, r, t int32) float64             { return o.bs.ScoreTriple(h, r, t) }
func (o int8Oracle) ScoreTails(h, r int32, c []int32, s []float64) { o.bs.ScoreTails(h, r, c, s) }
func (o int8Oracle) ScoreHeads(r, t int32, c []int32, s []float64) { o.bs.ScoreHeads(r, t, c, s) }

// Int8 is an execution precision, not a different protocol: for every model
// and every sampling strategy the batch executor's Int8 metrics must equal
// the naive oracle's over the per-query view exactly — same quantization
// error, same rounding, same ranks — including at a dim that leaves a
// partial quantization block at the end of every row.
func TestInt8MetricsMatchOracleLane(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	providers := equivalenceProviders(t, g)
	for _, dim := range []int{16, 20} { // 20: 2.5 blocks per row
		for _, name := range kgc.ModelNames() {
			m, err := kgc.New(name, g, dim, 5)
			if err != nil {
				t.Fatal(err)
			}
			for pname, p := range providers {
				checkAgainstOracle(t, fmt.Sprintf("%s/dim%d/%s/int8", name, dim, pname), m, newInt8Oracle(m), g, g.Test, p,
					Options{Filter: filter, Seed: 9, Workers: 2, Precision: store.Int8})
			}
		}
	}
}
