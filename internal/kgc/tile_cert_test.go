package kgc

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc/store"
)

// The approximate kernels' gate. The 512-bit lane's FMA dot kernel and
// RotatE's approximate root do not keep the Go kernels' bits; what they
// promise is certBound, which eval's rank count relies on to keep every rank
// exact. So these tests hold each score they write to the Go kernel's within
// that bound (or to NaN, which stands for any score), on random and
// adversarial inputs, at dims 2 to 512, over every group width; and the
// RotatE root to its proven relative error alone, root by root. On a host
// without such a lane they skip.

// certLanes lists the lanes of vecLanes that have approximate kernels.
func certLanes() []vecLane {
	var lanes []vecLane
	for _, l := range vecLanes {
		if slices.ContainsFunc(l.cert[:], func(f tileFunc) bool { return f != nil }) {
			lanes = append(lanes, l)
		}
	}
	return lanes
}

func needCertLane(t testing.TB) []vecLane {
	t.Helper()
	lanes := certLanes()
	if len(lanes) == 0 {
		t.Skip("no approximate kernels in this build or on this CPU: the rank path runs the exact ones")
	}
	return lanes
}

// maxAbsOf is the largest |v| over the values that are numbers, as
// store.TileColumns reports it.
func maxAbsOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v == v {
			m = max(m, math.Abs(v))
		}
	}
	return m
}

// norm1 is ‖q‖₁ summed as storeScorer.addNorms sums it.
func norm1(q []float64) float64 {
	n := 0.0
	for _, v := range q {
		n += math.Abs(v)
	}
	return n
}

// within reports whether the approximation f may stand for the score s
// under b: f is NaN, or f is s, or |f − s| ≤ b.Abs + b.Rel·|f|.
func within(f, s float64, b Bound) bool {
	return f != f || f == s || math.Abs(f-s) <= b.Abs+b.Rel*math.Abs(f)
}

// checkCertKernel scores the queries qs against the row-major rows with
// lane's approximate kernel of kind and with the Go kernel, and reports the
// first score outside certBound, or a write outside the tile's scores. It
// returns the largest |f − s| seen as a share of its bound.
func checkCertKernel(lane vecLane, kind tileKind, qs, rows []float64, dim int) (worst float64, err error) {
	n, nq := len(rows)/dim, len(qs)/dim
	want := make([]float64, nq*n)
	goKernels[kind](qs, rows, dim, 0, n, n, want)
	got, outIntact := guarded(nq * n)
	cols, colsIntact := guarded(n * dim)
	copy(cols, transposed(rows, n, dim))
	lane.cert[kind](qs, cols, dim, 0, n, n, got)
	if !outIntact() || !colsIntact() {
		return 0, fmt.Errorf("%s %v dim=%d nq=%d n=%d: wrote outside its buffers", lane.name, kind, dim, nq, n)
	}
	maxAbs := maxAbsOf(rows)
	for i := 0; i < nq; i++ {
		b, ok := certBound(kind, dim, norm1(qs[i*dim:(i+1)*dim]), maxAbs, 0)
		if !ok {
			continue
		}
		for j := 0; j < n; j++ {
			f, s := got[i*n+j], want[i*n+j]
			if !within(f, s, b) {
				return worst, fmt.Errorf("%s %v dim=%d nq=%d n=%d: query %d candidate %d: %v (%x), Go kernel %v (%x), bound %+v",
					lane.name, kind, dim, nq, n, i, j, f, math.Float64bits(f), s, math.Float64bits(s), b)
			}
			if f == f && f != s {
				worst = max(worst, math.Abs(f-s)/(b.Abs+b.Rel*math.Abs(f)))
			}
		}
	}
	return worst, nil
}

// wideVec is n values of random sign whose magnitudes spread over 2⁻ˢ to 2ˢ.
func wideVec(rng *rand.Rand, n, s int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Ldexp(rng.Float64()+0.5, rng.Intn(2*s+1)-s)
		if rng.Intn(2) == 0 {
			v[i] = -v[i]
		}
	}
	return v
}

// Both approximate kernels against the Go kernels within certBound: dims 2
// to 512, tiles of 4 to 100 candidates (every group width and remainder),
// one, two and five queries (the dot kernel takes them in pairs), over
// normal values, magnitudes spread over 2⁻⁶⁰⁰ to 2⁶⁰⁰ (subnormal products
// and sums, overflowing squares), planted specials, and near-cancelling dot
// products, whose sums are orders of magnitude below their terms.
func TestCertKernelsWithinBound(t *testing.T) {
	lanes := needCertLane(t)
	rng := rand.New(rand.NewSource(61))
	inputs := map[string]func(n int) []float64{
		"normal":  func(n int) []float64 { return randVec(rng, n) },
		"wide":    func(n int) []float64 { return wideVec(rng, n, 600) },
		"planted": func(n int) []float64 { return plantedVec(rng, n) },
	}
	worst := map[tileKind]float64{}
	for _, lane := range lanes {
		for kind := kindDot; kind < numKinds; kind++ {
			if lane.cert[kind] == nil {
				continue
			}
			for _, dim := range []int{2, 3, 4, 7, 16, 33, 64, 100, 128, 256, 512} {
				for _, n := range []int{4, 8, 12, 16, 28, 32, 36, 60, 100} {
					for _, nq := range []int{1, 2, 5} {
						for name, gen := range inputs {
							qs, rows := gen(nq*dim), gen(n*dim)
							w, err := checkCertKernel(lane, kind, qs, rows, dim)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							worst[kind] = max(worst[kind], w)
						}
						// Candidates that almost cancel against the query:
						// c = q·(1 + tiny) on half the dims and −q on the
						// other half.
						qs := randVec(rng, nq*dim)
						rows := make([]float64, n*dim)
						for j := 0; j < n; j++ {
							for k := 0; k < dim; k++ {
								v := qs[k] * (1 + 0x1p-40*rng.NormFloat64())
								if k%2 == 1 {
									v = -qs[k-1] * qs[k-1] / qs[k]
								}
								rows[j*dim+k] = v
							}
						}
						if _, err := checkCertKernel(lane, kind, qs, rows, dim); err != nil {
							t.Fatalf("cancelling: %v", err)
						}
					}
				}
			}
		}
	}
	for kind, w := range worst {
		t.Logf("%v: the largest deviation is %.3g of its bound", kind, w)
	}
}

// overflowPair returns a dim-2 query q and a candidate c, c = (M, M), with
// ‖q‖₁·M finite, whose sum of products overflows when each product is
// rounded first (the Go kernel, s = +Inf) and stays finite when the second
// is fused into the add (the FMA kernel): q₁·M is exact and q₂·M rounds up
// onto the midpoint between the largest float and 2¹⁰²⁴, which rounds to
// +Inf, while the exact sum lies below it. It searches M and q₂ for such a
// pair whose q₁ + q₂, and so ‖q‖₁·M, rounds down.
func overflowPair(t *testing.T) (q, c []float64) {
	t.Helper()
	const q1 = 0x1p523
	mid := new(big.Float).SetPrec(300).SetMantExp(big.NewFloat(1), 1024)
	mid.Sub(mid, new(big.Float).SetMantExp(big.NewFloat(1), 970))
	for k := 1; k < 1<<14; k++ {
		m := 0x1p500 * (1 + float64(k)*0x1p-40)
		a := q1 * m // exact: q1 is a power of two
		rest := new(big.Float).SetPrec(300).Sub(mid, big.NewFloat(a))
		target, _ := rest.Quo(rest, big.NewFloat(m)).Float64()
		for q2 := math.Nextafter(target, 0); q2 <= math.Nextafter(target, 2*target); q2 = math.Nextafter(q2, 2*q2) {
			exact := new(big.Float).SetPrec(300).Mul(big.NewFloat(q2), big.NewFloat(m))
			exact.Add(exact, big.NewFloat(a))
			if exact.Cmp(mid) < 0 && math.IsInf(float64(a)+float64(q2*m), 1) &&
				!math.IsInf(math.FMA(q2, m, a), 0) && !math.IsInf(float64(q1+q2)*m, 0) {
				return []float64{q1, q2}, []float64{m, m}
			}
		}
	}
	t.Fatal("overflowPair: no pair found")
	return nil, nil
}

// A product ‖q‖₁·max|c| past 2¹⁰⁰⁰ is where one sum can overflow and the
// other not: certBound must refuse to bound it (the rank path then rescores
// the query), because the FMA kernel's finite score is no bound away from the
// Go kernel's +Inf.
func TestCertDotOverflowGate(t *testing.T) {
	lanes := needCertLane(t)
	q, c := overflowPair(t)
	rows := make([]float64, 0, 8*2)
	for j := 0; j < 8; j++ {
		rows = append(rows, c...)
	}
	for _, lane := range lanes {
		got, want := make([]float64, 8), make([]float64, 8)
		scoreDotTile(q, rows, 2, 0, 8, 8, want)
		lane.cert[kindDot](q, transposed(rows, 8, 2), 2, 0, 8, 8, got)
		if !math.IsInf(want[0], 1) || math.IsInf(got[0], 0) {
			t.Fatalf("%s: the Go kernel scores %v and the FMA kernel %v: the input does not split them", lane.name, want[0], got[0])
		}
		if b, ok := certBound(kindDot, 2, norm1(q), maxAbsOf(c), 0); ok {
			t.Fatalf("%s: certBound bounds ‖q‖₁·max|c| = %v by %+v, which %v and %v do not meet", lane.name, norm1(q)*maxAbsOf(c), b, got[0], want[0])
		}
	}
}

// modRoots scores one complex dim against a query at zero, so each score is
// the root of a chosen x: -f and -s are the approximate and the correctly
// rounded √x. It fails the test where the approximation misses √x by more
// than its proven 2⁻²⁷ (plus the half ulp of s), except that x = 0, +Inf or
// NaN may give NaN.
func modRoots(t *testing.T, lane vecLane, what string, xs []float64) {
	t.Helper()
	n := (len(xs) + 3) &^ 3
	rows := make([]float64, 2*n)
	for j := range n {
		a, b := modPair(xs[j%len(xs)])
		rows[2*j], rows[2*j+1] = a, b
	}
	got, want := make([]float64, n), make([]float64, n)
	scoreRotTile([]float64{0, 0}, rows, 2, 0, n, n, want)
	lane.cert[kindRot]([]float64{0, 0}, transposed(rows, n, 2), 2, 0, n, n, got)
	for j := range n {
		f, s := got[j], want[j]
		x := rows[2*j]*rows[2*j] + rows[2*j+1]*rows[2*j+1]
		if f != f && (x == 0 || math.IsInf(x, 1) || x != x) {
			continue
		}
		miss := math.Abs(f-s) / math.Abs(s)
		if f == s {
			miss = 0
		}
		if !(miss <= 0x1p-27+0x1p-52) {
			t.Fatalf("%s %s: root of %v (%x) is %v, √x rounds to %v: off by %.3g of it", lane.name, what, x, math.Float64bits(x), -f, -s, miss)
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

// RotatE's approximate root on every class of hard input at dim 2: perfect
// squares and their neighbours, powers of two across the exponent range and
// theirs, roots near a midpoint between two floats, subnormal and smallest
// sums, the largest finite x, and zero, infinite and NaN x, which must give
// NaN or the root.
func TestCertRotHardRoots(t *testing.T) {
	lanes := needCertLane(t)
	rng := rand.New(rand.NewSource(41))
	classes := map[string][]float64{}
	for i := 0; i < 400; i++ {
		m := float64(1 + rng.Intn(1<<26))
		sq := math.Ldexp(m*m, 2*(rng.Intn(800)-400)) // exact: m has 26 bits
		classes["perfect squares"] = append(classes["perfect squares"], sq, math.Nextafter(sq, 0), math.Nextafter(sq, math.Inf(1)))
	}
	for k := -1000; k <= 1000; k++ {
		p := math.Ldexp(1, k)
		classes["2ᵏ and its neighbours"] = append(classes["2ᵏ and its neighbours"], p, math.Nextafter(p, 0), math.Nextafter(p, 2*p))
	}
	for c := int64(-200); c <= 200; c += 2 {
		for _, j := range []int{-400, 0, 400} {
			classes["near a midpoint"] = append(classes["near a midpoint"], math.Ldexp(nearMidpoint(c), 2*j))
		}
	}
	for _, lane := range lanes {
		for name, xs := range classes {
			modRoots(t, lane, name, xs)
		}
		// Sums of squares built directly, where modPair cannot reach.
		for name, p := range map[string][2]float64{
			"+0":                 {0, 0},
			"-0":                 {math.Copysign(0, -1), math.Copysign(0, -1)},
			"smallest subnormal": {math.SmallestNonzeroFloat64, 0x1p-537},
			"subnormal sum":      {0x1p-530, 0x1p-537},
			"largest finite":     {math.MaxFloat64, 0},
			"√ of the largest":   {0x1p511 * 1.9, 0x1p511},
			"+Inf":               {math.Inf(1), 1},
			"-Inf":               {math.Inf(-1), 1},
			"NaN":                {math.NaN(), 1},
			"overflowed squares": {0x1p600, 0x1p600},
		} {
			rows := make([]float64, 0, 2*32) // every lane of a 32-candidate group
			for range 32 {
				rows = append(rows, p[0], p[1])
			}
			got, want := make([]float64, 32), make([]float64, 32)
			scoreRotTile([]float64{0, 0}, rows, 2, 0, 32, 32, want)
			lane.cert[kindRot]([]float64{0, 0}, transposed(rows, 32, 2), 2, 0, 32, 32, got)
			for j := range got {
				if !within(got[j], want[j], Bound{Rel: 0x1p-27 + 0x1p-52}) {
					t.Errorf("%s %s: score %v, Go kernel %v", lane.name, name, got[j], want[j])
				}
			}
		}
	}
}

// Random normal inputs, 10⁷ roots (10⁶ under -short), with exponents from
// 2⁻⁴⁷⁰ to 2⁴⁷⁰, root by root within 2⁻²⁷, and the largest miss logged.
func TestCertRotRandomRoots(t *testing.T) {
	lanes := needCertLane(t)
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
	got, want := make([]float64, n), make([]float64, n)
	for _, lane := range lanes {
		worst := 0.0
		for done := 0; done < total; done += n {
			qs[0], qs[1] = normal(), normal()
			for i := range rows {
				rows[i] = normal()
			}
			scoreRotTile(qs, rows, 2, 0, n, n, want)
			lane.cert[kindRot](qs, transposed(rows, n, 2), 2, 0, n, n, got)
			for j, s := range want {
				miss := 0.0
				if f := got[j]; f != s {
					miss = math.Abs(f-s) / math.Abs(s)
				}
				if !(miss <= 0x1p-27+0x1p-52) {
					t.Fatalf("%s: score %v, Go kernel %v: off by %.3g of it", lane.name, got[j], s, miss)
				}
				worst = max(worst, miss)
			}
		}
		t.Logf("%s: %d roots, the largest relative miss 2^%.1f", lane.name, total, math.Log2(worst))
	}
}

// TestRankBlockWithinBounds is the whole rank path of each scorer against
// its ScoreBlock: all seven models, all three precisions, both directions,
// dims 2 to 128, pools that leave sub-group tails, and entity rows planted
// with exact duplicates, huge values (past the overflow gate), infinities and
// NaNs. Every score RankBlock writes is within the Bound it reports for its
// query, and a query reported with the zero Bound has ScoreBlock's bits.
// Rescore writes ScoreBlock's bits for any query and candidates.
func TestRankBlockWithinBounds(t *testing.T) {
	const rows = 200
	g := &kg.Graph{NumEntities: rows, NumRelations: 3}
	rng := rand.New(rand.NewSource(29))
	ents := make([]int32, 9)
	for i := range ents {
		ents[i] = int32(rng.Intn(rows))
	}
	approximate := 0
	for _, dim := range []int{2, 3, 8, 32, 64, 128} {
		for _, m := range laneModels(t, g, dim, 31) {
			if m.Name() == "TuckER" && dim > 64 {
				continue
			}
			w, d := m.(batchNative).lane().ent.w, m.Dim()
			copy(w[41*d:42*d], w[40*d:41*d])
			w[60*d] = 0x1p700
			w[61*d+d-1] = math.Inf(-1)
			w[62*d] = math.NaN()
			for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
				cands := make([]int32, 75)
				for j := range cands {
					cands[j] = int32(rng.Intn(rows))
				}
				for _, planted := range []bool{false, true} {
					if planted {
						copy(cands, []int32{40, 41, 60, 61, 62})
					}
					for _, tails := range []bool{true, false} {
						s := NewBatchScorer(m, BatchOptions{Precision: p}).(*storeScorer)
						s.BeginBlock(len(ents))
						if tails {
							s.AddTails(ents, 1)
						} else {
							s.AddHeads(ents, 1)
						}
						nc := len(cands)
						want, got := make([]float64, len(ents)*nc), make([]float64, len(ents)*nc)
						bounds := make([]Bound, len(ents))
						s.ScoreBlock(cands, want)
						s.RankBlock(cands, got, bounds)
						for i, b := range bounds {
							if b != (Bound{}) {
								approximate++
							}
							for j := range nc {
								f, e := got[i*nc+j], want[i*nc+j]
								if b == (Bound{}) && !sameScore(f, e) || !within(f, e, b) {
									t.Fatalf("%s dim=%d %v tails=%v planted=%v: query %d candidate %d: RankBlock %v, ScoreBlock %v, bound %+v",
										m.Name(), dim, p, tails, planted, i, cands[j], f, e, b)
								}
							}
							again := make([]float64, nc)
							s.Rescore(i, cands, again)
							for j := range nc {
								if !sameScore(again[j], want[i*nc+j]) {
									t.Fatalf("%s dim=%d %v: Rescore of query %d candidate %d is %v, ScoreBlock %v",
										m.Name(), dim, p, i, cands[j], again[j], want[i*nc+j])
								}
							}
						}
					}
				}
			}
		}
	}
	if len(certLanes()) > 0 && approximate == 0 {
		t.Fatal("no query was scored by an approximate kernel")
	}
	t.Logf("%d query strips through an approximate kernel", approximate)
}
