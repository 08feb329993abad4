//go:build amd64 && !purego

package kgc

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"kgeval/internal/cpu"
)

// The 512-bit RotatE kernel's own gate. Half of its square roots come from an
// FMA root that Tuckerman's test accepts or hands back to VSQRTPD
// (tile_amd64.s), so beside the bits, which every lane test holds to the Go
// kernel, two things need pinning here: that the root path is exact where it
// is hardest — next to perfect squares and powers of two, at the edges of its
// guard band, on zero, subnormal, infinite and NaN sums — and that on real
// embeddings it never falls back. A kernel that always fell back would keep
// every bit and lose all the speed.

func needAVX512(t *testing.T) {
	t.Helper()
	if !cpu.AVX512 {
		t.Skip("no AVX-512F on this CPU: the 512-bit kernels do not run")
	}
}

// rotAVX512 scores the queries qs against the row-major candidates rows with
// rotTileAVX512 and with the Go kernel, fails the test at the first score
// whose bits differ, and returns how many vectors fell back to VSQRTPD.
func rotAVX512(t *testing.T, what string, qs, rows []float64, dim int) int {
	t.Helper()
	n, nq := len(rows)/dim, len(qs)/dim
	if n%4 != 0 || nq == 0 {
		t.Fatalf("%s: %d candidates and %d queries: the kernel takes whole groups of four and a query", what, n, nq)
	}
	want, got := make([]float64, nq*n), make([]float64, nq*n)
	scoreRotTile(qs, rows, dim, 0, n, n, want)
	cols := transposed(rows, n, dim)
	fallbacks := rotTileAVX512(&qs[0], nq, &cols[0], dim, n, &got[0], n)
	for i := range want {
		if !sameScore(got[i], want[i]) {
			t.Fatalf("%s dim=%d: score[%d] = %x (%v), Go kernel %x (%v)", what, dim, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	return fallbacks
}

// group32 is one 32-candidate group at dim 2 whose every candidate is
// (a, b): against a query at zero each lane's x is a² + b², on both units.
func group32(a, b float64) []float64 {
	rows := make([]float64, 64)
	for j := 0; j < 32; j++ {
		rows[2*j], rows[2*j+1] = a, b
	}
	return rows
}

// Every class of hard input at dim 2, by bits against the Go kernel. Each
// input fills a 32-candidate group, so it reaches the divider's lanes and the
// FMA root's. Inputs outside the root's guard band must fall back; those in
// it are exact whichever path they took. About half of the near-midpoint
// roots are the ones Markstein's correction rounds the wrong way, so they
// are where Tuckerman's test, either half of it, does its work.
func TestRotTileAVX512HardRoots(t *testing.T) {
	needAVX512(t)
	query := []float64{0, 0}
	p900 := math.Ldexp(1, 900)
	inBand := map[string][]float64{} // squared moduli, each built with modPair
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 400; i++ {
		m := float64(1 + rng.Intn(1<<26))
		sq := math.Ldexp(m*m, 2*(rng.Intn(800)-400)) // exact: m has 26 bits
		inBand["perfect squares"] = append(inBand["perfect squares"], sq)
		inBand["perfect squares ± 1 ulp"] = append(inBand["perfect squares ± 1 ulp"],
			math.Nextafter(sq, 0), math.Nextafter(sq, math.Inf(1)))
	}
	for k := -899; k <= 899; k++ { // pred(2²ʲ) = 2ʲ·pred(2ʲ) and succ(2²ʲ) = 2ʲ·succ(2ʲ): Tuckerman's bounds met exactly
		p := math.Ldexp(1, k)
		inBand["2ᵏ and its neighbours"] = append(inBand["2ᵏ and its neighbours"], p, math.Nextafter(p, 0), math.Nextafter(p, 2*p))
	}
	for c := int64(-200); c <= 200; c += 2 {
		for _, j := range []int{-400, 0, 400} {
			inBand["near a midpoint"] = append(inBand["near a midpoint"], math.Ldexp(nearMidpoint(c), 2*j))
		}
	}
	inBand["band edges"] = []float64{1 / p900, math.Nextafter(1/p900, 1), math.Nextafter(p900, 0), p900}
	for name, xs := range inBand {
		for _, x := range xs {
			a, b := modPair(x)
			if got := float64(a*a) + float64(b*b); got != x {
				t.Fatalf("%s: modPair(%x) gives a sum of squares %x", name, math.Float64bits(x), math.Float64bits(got))
			}
			rotAVX512(t, name, query, group32(a, b), 2)
		}
	}

	inf, tiny := math.Inf(1), math.SmallestNonzeroFloat64
	belowA, belowB := modPair(math.Nextafter(1/p900, 0))
	aboveA, aboveB := modPair(math.Nextafter(p900, inf))
	outOfBand := map[string][2]float64{
		"below 2⁻⁹⁰⁰":          {belowA, belowB},
		"above 2⁹⁰⁰":           {aboveA, aboveB},
		"+0":                   {0, 0},
		"-0":                   {math.Copysign(0, -1), math.Copysign(0, -1)},
		"smallest subnormal":   {tiny, tiny},
		"subnormal sum":        {0x1p-530, 0x1p-537},
		"largest finite":       {math.MaxFloat64, 0},
		"+Inf":                 {inf, 1},
		"-Inf":                 {math.Inf(-1), 1},
		"NaN":                  {math.NaN(), 1},
		"overflowed squares":   {0x1p600, 0x1p600},
		"below the band, sums": {0x1p-451, 0x1p-452},
	}
	for name, p := range outOfBand {
		if fb := rotAVX512(t, name, query, group32(p[0], p[1]), 2); fb == 0 {
			t.Errorf("%s: x = %v is outside the FMA root's band, and no vector fell back to VSQRTPD", name, p[0]*p[0]+p[1]*p[1])
		}
	}
}

// nearMidpoint returns, for an even c, x = (M² + M + c)·2⁻¹⁰⁴ for the one M in
// [2⁵², 2⁵³) that makes x a float: √x lies about (c − ¼)·2⁻¹⁰⁶ from the
// midpoint of M·2⁻⁵² and its successor, among the hardest x a square root has
// to round. M² + M + c ≡ 0 (mod 2⁵³) is solved a bit at a time: adding 2ᵏ to
// M flips bit k of the sum, since 2M + 1 is odd.
func nearMidpoint(c int64) float64 {
	m := uint64(0)
	for k := 1; k < 53; k++ {
		if (m*m+m+uint64(c))>>k&1 != 0 {
			m += 1 << k
		}
	}
	if m < 1<<52 {
		m = 1<<53 - 1 - m // the other root
	}
	hi, lo := bits.Mul64(m, m)
	lo, carry := bits.Add64(lo, m, 0)
	hi += carry
	if c >= 0 {
		lo, carry = bits.Add64(lo, uint64(c), 0)
		hi += carry
	} else {
		lo, carry = bits.Sub64(lo, uint64(-c), 0)
		hi -= carry
	}
	if lo&(1<<53-1) != 0 {
		panic("nearMidpoint: M² + M + c is not a multiple of 2⁵³")
	}
	return math.Ldexp(float64(hi<<11|lo>>53), -51)
}

// Random normal inputs, 10⁷ of them (10⁶ under -short), with exponents wide
// enough that some sums leave the guard band: every score by bits.
func TestRotTileAVX512RandomRoots(t *testing.T) {
	needAVX512(t)
	total := 10_000_000
	if testing.Short() {
		total = 1_000_000
	}
	const n = 4096
	rng := rand.New(rand.NewSource(43))
	normal := func() float64 {
		bits := rng.Uint64()&(1<<52-1) | uint64(1023+rng.Intn(940)-470)<<52 | rng.Uint64()&(1<<63)
		return math.Float64frombits(bits)
	}
	qs, rows := make([]float64, 2), make([]float64, 2*n)
	fallbacks := 0
	for done := 0; done < total; done += n {
		qs[0], qs[1] = normal(), normal()
		for i := range rows {
			rows[i] = normal()
		}
		fallbacks += rotAVX512(t, "random normals", qs, rows, 2)
	}
	t.Logf("%d roots compared by bits; %d vectors of eight fell back", total, fallbacks)
}

// On the embeddings kgc.New gives RotatE, untrained and after one epoch, the
// FMA root never falls back, at any dim from 2 to 512, for tail and head
// queries, over candidate tiles that use every group width (32, 16, 8, 4).
func TestRotTileAVX512NeverFallsBackOnEmbeddings(t *testing.T) {
	needAVX512(t)
	g := trainGraph(t)
	const n = 9*32 + 16 + 8 + 4
	hs := make([]int32, 24)
	for i := range hs {
		hs[i] = g.Test[i].H
	}
	for _, dim := range []int{2, 6, 16, 64, 100, 128, 256, 512} {
		m, err := New("RotatE", g, dim, 7)
		if err != nil {
			t.Fatal(err)
		}
		rot := m.(*RotatE)
		for epoch := 0; epoch < 2; epoch++ {
			if epoch == 1 {
				Train(m, g, TrainConfig{Epochs: 1, Seed: 1})
			}
			rows := make([]float64, n*dim)
			for j := 0; j < n; j++ {
				copy(rows[j*dim:(j+1)*dim], rot.ent.vec(int32(j%g.NumEntities)))
			}
			qs := make([]float64, len(hs)*dim)
			for r := int32(0); r < int32(g.NumRelations); r++ {
				rot.buildTailQueries(hs, r, qs, nil)
				if fb := rotAVX512(t, "tail queries", qs, rows, dim); fb != 0 {
					t.Errorf("dim %d, %d epochs, relation %d: %d vectors of tail scores fell back to VSQRTPD", dim, epoch, r, fb)
				}
				rot.buildHeadQueries(hs, r, qs, nil)
				if fb := rotAVX512(t, "head queries", qs, rows, dim); fb != 0 {
					t.Errorf("dim %d, %d epochs, relation %d: %d vectors of head scores fell back to VSQRTPD", dim, epoch, r, fb)
				}
			}
		}
	}
}
