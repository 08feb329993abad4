package eval

import (
	"fmt"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
)

// int8Oracle is the per-query view of the Int8 lane: a plain Model (no batch
// contract visible) whose three methods are one-query blocks of a scorer
// with one-row tiles, reading candidates and answers from the model's Int8
// store one row at a time. The naive oracle scores through it, so the
// reference side shares nothing with the batch executor but the store — no
// relation chunks, no multi-row tiles, no four-row kernel path. The scorer
// behind it is pinned bit for bit against store.Gather plus plain loops by
// kgc's TestTileLaneMatchesGatherOracle.
type int8Oracle struct {
	kgc.Model
	bs kgc.BatchScorer
}

func newInt8Oracle(m kgc.Model) int8Oracle {
	return int8Oracle{m, kgc.NewBatchScorer(m, kgc.BatchOptions{Precision: store.Int8, Tile: 1})}
}

// ScoreTriple is the tail query's answer: at Int8, read off the query the
// block holds, from the store.
func (o int8Oracle) ScoreTriple(h, r, t int32) float64 {
	o.bs.BeginBlock(1)
	o.bs.AddTails([]int32{h}, r)
	return o.bs.ScoreAnswer(0, t)
}

func (o int8Oracle) ScoreTails(h, r int32, c []int32, s []float64) {
	o.bs.ScoreTailsBatch([]int32{h}, r, c, s)
}

func (o int8Oracle) ScoreHeads(r, t int32, c []int32, s []float64) {
	o.bs.BeginBlock(1)
	o.bs.AddHeads([]int32{t}, r)
	o.bs.Rescore(0, c, s)
}

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
