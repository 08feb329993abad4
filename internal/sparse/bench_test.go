package sparse

import (
	"math/rand"
	"testing"
)

// benchIncidence is shaped like the benchmark of record's L-WD input: a
// 12 000 × 160 binary incidence matrix built from ~226 k (row, col) pairs
// with Zipf-skewed columns, so a few columns are hubs and pairs repeat.
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

// BenchmarkMul times the two products of L-WD's Algorithm 1: the Gram matrix
// BᵀB (few heavy rows, transposed back) and B·W (many light rows against a
// near-dense W), which is wanted column-major and so is MulT alone.
func BenchmarkMul(b *testing.B) {
	rows, cols, entries := benchIncidence()
	inc := NewBinaryCSR(rows, cols, entries)
	incT := inc.Transpose()
	w := RowNormalize(Mul(incT, inc))
	b.Run("GramT", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			Mul(incT, inc)
		}
	})
	b.Run("BW", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			MulT(inc, w)
		}
	})
}
