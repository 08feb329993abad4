package sparse

import (
	"math/rand"
	"testing"

	"kgeval/internal/synth"
)

// benchIncidence is a 12 000 × 160 binary matrix built from ~226 k (row,
// col) pairs — 2·|Train| of the benchmark of record's host graph — with
// Zipf-skewed columns, so a few columns are hubs and pairs repeat.
func benchIncidence() (rows, cols int, entries []Entry) {
	rows, cols = 12000, 160
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(cols/2-1))
	entries = make([]Entry, 0, 226000)
	for len(entries) < cap(entries) {
		r := int32(zipf.Uint64())
		entries = append(entries,
			Entry{Row: int32(rng.Intn(rows)), Col: r},
			Entry{Row: int32(rng.Intn(rows)), Col: int32(cols/2) + r})
	}
	return rows, cols, entries
}

func BenchmarkNewBinaryCSR(b *testing.B) {
	rows, cols, entries := benchIncidence()
	b.ReportAllocs()
	for b.Loop() {
		NewBinaryCSR(rows, cols, entries)
	}
}

// BenchmarkMul times the products of the fitted recommenders on the inputs
// they get: on wikikg2-sim (the benchmark of record's host graph) L-WD's Gram
// matrix Bᵀ·B and score matrix Wᵀ·Bᵀ, against a W that is 62 % dense, and
// DBH-T's type counts Bᵀ·T and score matrix (Bᵀ·T)·Tᵀ; on fb15k-sim L-WD's
// score matrix against a sparse W.
func BenchmarkMul(b *testing.B) {
	run := func(name string, x, y *CSR) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Mul(x, y)
			}
		})
	}
	inc, types := graphOperands(b, synth.WikiKG2Sim())
	incT := inc.Transpose()
	w := RowNormalize(Mul(incT, inc))
	typeCountsT := Mul(incT, types)
	run("wikikg2-sim/Gram", incT, inc)
	run("wikikg2-sim/L-WD", w.Transpose(), incT)
	run("wikikg2-sim/TypeCounts", incT, types)
	run("wikikg2-sim/DBH-T", typeCountsT, types.Transpose())
	inc, w = lwdOperands(b, synth.FB15kSim())
	run("fb15k-sim/L-WD", w.Transpose(), inc.Transpose())
}
