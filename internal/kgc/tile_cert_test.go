package kgc

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc/store"
)

// The approximate kernels' gate. The 512-bit lane's rank path scores in
// float32 — an FMA dot walk, an L1 kernel built on VMAXPS and RotatE's
// VRSQRT14PS root — and does not keep the Go kernels' bits; what it
// promises is certBound, which eval's rank count relies on to keep every
// rank exact. So these tests feed each kernel as RankBlock does (the queries
// rounded to float32, the rows through store.TileColumns32) and hold each
// score it writes to the Go kernel's within that bound (or to NaN, which
// stands for any score): on random inputs, on inputs at the edges of
// float32's range, and on adversarial ones whose roundings all fall one
// way, which must come within half of each kind's bound, so that the bound
// is shown to be near what the kernels do and not only above it. On a host
// without such a lane they skip.

// certLanes lists the lanes of vecLanes that have approximate kernels.
func certLanes() []vecLane {
	var lanes []vecLane
	for _, l := range vecLanes {
		if slices.ContainsFunc(l.cert[:], func(f rankFunc) bool { return f != nil }) {
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
// store.TileColumns32 reports it.
func maxAbsOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v == v {
			m = max(m, math.Abs(v))
		}
	}
	return m
}

// norm1 is ‖q‖₁ summed as storeScorer.addRank sums it.
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

// share is |f − s| as a share of what b allows f (0 where f is s or NaN).
func share(f, s float64, b Bound) float64 {
	if f != f || f == s {
		return 0
	}
	return math.Abs(f-s) / (b.Abs + b.Rel*math.Abs(f))
}

// certScores scores the queries qs against the row-major rows with lane's
// float32 kernel of kind, fed as RankBlock feeds it: the queries rounded to
// float32, the rows through store.TileColumns32 at rankStride, the scores
// into the columns [j0, j0+n) of out rows nc wide. It returns the nq×n
// scores and the tile's max|c|, or an error where the kernel wrote anything
// outside its scores.
func certScores(lane vecLane, kind tileKind, qs, rows []float64, dim, j0, nc int) (got []float64, maxAbs float64, err error) {
	n, nq := len(rows)/dim, len(qs)/dim
	st, err := store.FromRows(rows, n, dim, store.Float64)
	if err != nil {
		return nil, 0, err
	}
	ids := make([]int32, n)
	for j := range ids {
		ids[j] = int32(j)
	}
	cols, maxAbs := st.TileColumns32(ids, rankStride(n), make([]float32, rankStride(n)*dim))
	q32 := make([]float32, len(qs))
	for i, v := range qs {
		q32[i] = float32(v)
	}
	out, intact := guarded(nq * nc)
	for i := range out {
		out[i] = sentinel
	}
	lane.cert[kind](q32, cols, dim, j0, j0+n, nc, out)
	got = make([]float64, nq*n)
	for i := range nq {
		for j := range nc {
			v := out[i*nc+j]
			if j < j0 || j >= j0+n {
				if math.Float64bits(v) != math.Float64bits(sentinel) {
					return nil, 0, fmt.Errorf("%s %v dim=%d nq=%d n=%d: wrote out[%d][%d], outside [%d, %d)", lane.name, kind, dim, nq, n, i, j, j0, j0+n)
				}
				continue
			}
			got[i*n+j-j0] = v
		}
	}
	if !intact() {
		return nil, 0, fmt.Errorf("%s %v dim=%d nq=%d n=%d: wrote outside its buffers", lane.name, kind, dim, nq, n)
	}
	return got, maxAbs, nil
}

// checkCertKernel scores the queries qs against the row-major rows with
// lane's float32 kernel of kind (certScores, the tile j0 columns into out
// rows pad wider than it) and with the Go kernel, and reports the first
// score outside certBound, or a write outside the tile's scores. It returns
// the largest |f − s| seen as a share of its bound.
func checkCertKernel(lane vecLane, kind tileKind, qs, rows []float64, dim, j0, pad int) (worst float64, err error) {
	n, nq := len(rows)/dim, len(qs)/dim
	want := make([]float64, nq*n)
	goKernels[kind](qs, rows, dim, 0, n, n, want)
	got, maxAbs, err := certScores(lane, kind, qs, rows, dim, j0, j0+n+pad)
	if err != nil {
		return 0, err
	}
	if m := maxAbsOf(rows); m != maxAbs {
		return 0, fmt.Errorf("%s %v dim=%d n=%d: the fill reports max|c| %v, the rows hold %v", lane.name, kind, dim, n, maxAbs, m)
	}
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
			worst = max(worst, share(f, s, b))
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

// edgeVec is n values of random sign about 2ᵉ, each a float32 moved by a
// random share of its spacing, so most do not round to themselves.
func edgeVec(rng *rand.Rand, n, e int) []float64 {
	v := make([]float64, n)
	for i := range v {
		f := float32(math.Ldexp(rng.Float64()+0.5, e+rng.Intn(5)-2))
		v[i] = float64(f) + (rng.Float64()-0.5)*ulp32(f)
		if rng.Intn(2) == 0 {
			v[i] = -v[i]
		}
	}
	return v
}

// ulp32 is the spacing of the float32 values at |f|.
func ulp32(f float32) float64 {
	a := math.Abs(float64(f))
	return float64(math.Nextafter32(float32(a), float32(math.Inf(1)))) - a
}

// Every float32 kernel against the Go kernels within certBound: dims 1 to
// 512, tiles of 1 to 100 candidates (every group of 64, 32 and 16 lanes and
// every masked remainder), one to nine queries (the dot and L1 kernels take
// them four at a time, then alone), the tile at the start of a pool and in
// the middle of a wider one, over normal values, magnitudes spread over
// 2⁻⁶⁰ to 2⁶⁰ and over 2⁻¹⁶⁰ to 2¹⁶⁰ (past the gates, and below float32's
// subnormals), values about float32's smallest normal, planted specials, and
// near-cancelling dot products, whose sums are orders of magnitude below
// their terms.
func TestCertKernelsWithinBound(t *testing.T) {
	lanes := needCertLane(t)
	rng := rand.New(rand.NewSource(61))
	inputs := map[string]func(n int) []float64{
		"normal":    func(n int) []float64 { return randVec(rng, n) },
		"wide":      func(n int) []float64 { return wideVec(rng, n, 60) },
		"wider":     func(n int) []float64 { return wideVec(rng, n, 160) },
		"subnormal": func(n int) []float64 { return edgeVec(rng, n, -126) },
		"planted":   func(n int) []float64 { return plantedVec(rng, n) },
	}
	worst := map[tileKind]float64{}
	for _, lane := range lanes {
		for kind := kindDot; kind < numKinds; kind++ {
			for _, dim := range []int{1, 2, 3, 4, 7, 16, 33, 64, 100, 128, 256, 512} {
				if kind == kindRot && dim < 2 {
					continue
				}
				for _, n := range []int{1, 3, 4, 12, 16, 17, 31, 32, 48, 63, 64, 65, 100} {
					for _, nq := range []int{1, 2, 4, 5, 9} {
						j0, pad := rng.Intn(3), rng.Intn(3)
						for name, gen := range inputs {
							qs, rows := gen(nq*dim), gen(n*dim)
							w, err := checkCertKernel(lane, kind, qs, rows, dim, j0, pad)
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
						if _, err := checkCertKernel(lane, kind, qs, rows, dim, j0, pad); err != nil {
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

// The dot kernel walks the queries four at a time, then alone; each
// accumulator runs the same FMAs in the same order in both walks, so a
// query's scores have the same bits whatever queries ride with it. Scored
// alone and among one to nine queries, at every position, over every group
// width, they must.
func TestCertDotScoresDoNotDependOnQueryCount(t *testing.T) {
	lanes := needCertLane(t)
	rng := rand.New(rand.NewSource(71))
	const n = 107 // groups of 64, 32 and 16 lanes, the last one masked
	for _, lane := range lanes {
		for _, dim := range []int{1, 3, 16, 65} {
			rows := randVec(rng, n*dim)
			for nq := 1; nq <= 9; nq++ {
				qs := randVec(rng, nq*dim)
				all, _, err := certScores(lane, kindDot, qs, rows, dim, 0, n)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < nq; i++ {
					one, _, err := certScores(lane, kindDot, qs[i*dim:(i+1)*dim], rows, dim, 0, n)
					if err != nil {
						t.Fatal(err)
					}
					for j := range one {
						if math.Float64bits(one[j]) != math.Float64bits(all[i*n+j]) {
							t.Fatalf("%s dim=%d: query %d of %d, candidate %d: %v among the others, %v alone",
								lane.name, dim, i, nq, j, all[i*n+j], one[j])
						}
					}
				}
			}
		}
	}
}

// The L1 kernel writes Q + C − 2M, three sums that nearly cancel wherever a
// candidate lies near the query, which is where a rank is decided. On such
// inputs — candidates within a few float32 ulps or a relative 2⁻²⁰ of a
// query, at magnitudes about 2⁻¹²⁰ (where the sums and differences run into
// float32's subnormals), 1 and 2⁹⁰, with ±0 and subnormal values among them —
// every score must lie within certBound of the Go kernel's, and a candidate
// equal to its query must score exactly 0, as the Go kernel's does. A
// candidate with a NaN value scores NaN; a query or candidate with an
// infinite value, or a NaN query, gets no bound.
func TestCertL1NearCancelling(t *testing.T) {
	lanes := needCertLane(t)
	rng := rand.New(rand.NewSource(67))
	const n = 60 // groups of 32 and 16 lanes, the last one masked
	for _, lane := range lanes {
		for _, dim := range []int{1, 2, 7, 16, 64, 257} {
			for _, nq := range []int{1, 2, 3, 5} {
				for _, scale := range []int{-120, 0, 90} {
					qs := randVec(rng, nq*dim)
					for k := range qs {
						switch rng.Intn(8) {
						case 0:
							qs[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
						case 1:
							qs[k] = 0x1p-149 * float64(rng.Intn(9)-4)
						case 2:
							qs[k] = math.SmallestNonzeroFloat64 * float64(rng.Intn(9)-4)
						default:
							qs[k] = math.Ldexp(qs[k], scale)
						}
					}
					rows := make([]float64, n*dim)
					for j := 0; j < n; j++ {
						q := qs[j%nq*dim:][:dim]
						c := rows[j*dim:][:dim]
						for k, v := range q {
							switch j % 4 {
							case 0: // the query itself
								c[k] = v
							case 1: // a relative 2⁻²⁰ away
								c[k] = v * (1 + 0x1p-20*rng.NormFloat64())
							case 2: // a few float32 ulps away, through zero and the subnormals
								f := float32(v)
								for range rng.Intn(4) {
									f = math.Nextafter32(f, float32(math.Inf(rng.Intn(2)*2-1)))
								}
								c[k] = float64(f)
							case 3: // the query with its signs of zero flipped
								c[k] = v
								if v == 0 {
									c[k] = -v
								}
							}
						}
					}
					if _, err := checkCertKernel(lane, kindL1, qs, rows, dim, 0, 0); err != nil {
						t.Fatalf("scale 2^%d: %v", scale, err)
					}
					got, _, err := certScores(lane, kindL1, qs, rows, dim, 0, n)
					if err != nil {
						t.Fatal(err)
					}
					for j := 0; j < n; j += 4 {
						if f := got[j%nq*n+j]; f != 0 {
							t.Fatalf("%s dim=%d scale 2^%d: candidate %d equals query %d and scores %v, not 0", lane.name, dim, scale, j, j%nq, f)
						}
					}
				}
			}
		}
		// Specials: a NaN in a candidate makes its score NaN; an infinity
		// in a candidate, or a NaN or infinity in the query, leaves no bound.
		const dim = 5
		q := randVec(rng, dim)
		for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
			rows := randVec(rng, n*dim)
			rows[7*dim+3] = v
			got, maxAbs, err := certScores(lane, kindL1, q, rows, dim, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if v != v {
				if f := got[7]; f == f {
					t.Errorf("%s: a candidate holding NaN scores %v, not NaN", lane.name, f)
				}
			} else if b, ok := certBound(kindL1, dim, norm1(q), maxAbs, 0); ok {
				t.Errorf("%s: a candidate holding %s is bounded by %+v", lane.name, name, b)
			}
			bad := slices.Clone(q)
			bad[2] = v
			if b, ok := certBound(kindL1, dim, norm1(bad), maxAbsOf(rows), 0); ok {
				t.Errorf("%s: a query holding %s is bounded by %+v", lane.name, name, b)
			}
		}
	}
}

// A product ‖q‖₁·max|c| past 2¹⁰⁰, or a query or candidate value past 2¹⁰⁰,
// is where a float32 product or sum can overflow while the Go kernel's
// float64 sum stays finite: q = c = (2⁶⁵, 2⁶⁵) scores +Inf in float32 and
// 2¹³¹ in float64. certBound must refuse to bound it (the rank path then
// rescores the query), and it must bound a product, norm and max just below
// 2¹⁰⁰ and refuse each just above.
func TestCertDotOverflowGate(t *testing.T) {
	lanes := needCertLane(t)
	q := []float64{0x1p65, 0x1p65}
	rows := make([]float64, 0, 8*2)
	for j := 0; j < 8; j++ {
		rows = append(rows, q...)
	}
	for _, lane := range lanes {
		want := make([]float64, 8)
		scoreDotTile(q, rows, 2, 0, 8, 8, want)
		got, maxAbs, err := certScores(lane, kindDot, q, rows, 2, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(want[0], 0) || !math.IsInf(got[0], 1) {
			t.Fatalf("%s: the Go kernel scores %v and the float32 kernel %v: the input does not split them", lane.name, want[0], got[0])
		}
		if b, ok := certBound(kindDot, 2, norm1(q), maxAbs, 0); ok {
			t.Fatalf("%s: certBound bounds ‖q‖₁·max|c| = %v by %+v, which %v and %v do not meet", lane.name, norm1(q)*maxAbs, b, got[0], want[0])
		}
	}
	below, above := 0x1p100*(1-0x1p-40), 0x1p100*(1+0x1p-40)
	for _, c := range []struct {
		norm, maxAbs float64
		ok           bool
	}{
		{below, 1, true}, {1, below, true}, {0x1p50, below / 0x1p50, true},
		{above, 0x1p-10, false}, {0x1p-10, above, false}, {0x1p50, above / 0x1p50, false},
	} {
		if _, ok := certBound(kindDot, 2, c.norm, c.maxAbs, 0); ok != c.ok {
			t.Errorf("certBound(dot, ‖q‖₁ = %v, max|c| = %v) ok = %v, want %v", c.norm, c.maxAbs, ok, c.ok)
		}
	}
}

// The L1 kernel's sums can overflow where the Go kernel's cannot: a
// candidate equal to a query of values near float32's largest scores 0 in
// the Go kernel, while Q + C overflows to +Inf and T − 2M is NaN. certBound
// refuses such a query, and every query whose ‖q‖₁ + n·max|c| lies above
// 2¹⁰⁰; through TransE's scorer, RankBlock then writes every score NaN and
// every Bound {Abs: +Inf}, leaving the ranks to the exact rescore (eval's
// TestCertifiedRankAboveTheL1Gate ranks such a pass). Just below 2¹⁰⁰ the
// bound holds and RankBlock keeps its approximations.
func TestCertL1OverflowGate(t *testing.T) {
	lanes := needCertLane(t)
	q := []float64{0x1.8p127}
	rows := []float64{q[0], q[0], q[0], q[0], q[0], q[0], q[0], q[0]}
	for _, lane := range lanes {
		want := make([]float64, 8)
		scoreL1Tile(q, rows, 1, 0, 8, 8, want)
		got, maxAbs, err := certScores(lane, kindL1, q, rows, 1, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want[0] != 0 || got[0] == 0 || !math.IsInf(got[0], 0) && got[0] == got[0] {
			t.Fatalf("%s: the Go kernel scores %v and the L1 kernel %v: the input does not split them", lane.name, want[0], got[0])
		}
		if b, ok := certBound(kindL1, 1, norm1(q), maxAbs, 0); ok {
			t.Fatalf("%s: certBound bounds ‖q‖₁ + n·max|c| = %v by %+v", lane.name, norm1(q)+maxAbs, b)
		}
	}

	const dim, ents = 8, 64
	g := &kg.Graph{NumEntities: ents, NumRelations: 1}
	m := NewTransE(g, dim, 3)
	clear(m.rel.w)
	for _, c := range []struct {
		name  string
		v     float64 // the one large value: n·v is 2¹⁰⁰·(1 ± 2⁻⁴⁰)
		bound bool
	}{{"above", 0x1p97 * (1 + 0x1p-40), false}, {"below", 0x1p97 * (1 - 0x1p-40), true}} {
		m.ent.w[40*dim+3] = c.v
		if b, ok := certBound(kindL1, dim, 1, c.v, 0); ok != c.bound {
			t.Fatalf("%s: certBound(‖q‖₁ = 1, max|c| = %v) = %+v, %v", c.name, c.v, b, ok)
		}
		cands := make([]int32, ents)
		for j := range cands {
			cands[j] = int32(j)
		}
		hs := []int32{1, 2, 3, 5, 8}
		s := NewBatchScorer(m, BatchOptions{}).(*storeScorer)
		s.BeginBlock(len(hs))
		s.AddTails(hs, 0)
		want, got := make([]float64, len(hs)*ents), make([]float64, len(hs)*ents)
		bounds := make([]Bound, len(hs))
		s.scoreBlock(cands, want)
		s.RankBlock(cands, got, bounds)
		for i, b := range bounds {
			if c.bound && b == (Bound{}) || !c.bound && b != (Bound{Abs: math.Inf(1)}) {
				t.Fatalf("%s: query %d has Bound %+v", c.name, i, b)
			}
			for j := range ents {
				f, e := got[i*ents+j], want[i*ents+j]
				if !c.bound && f == f || !within(f, e, b) {
					t.Fatalf("%s: query %d candidate %d: RankBlock %v, scoreBlock %v, bound %+v", c.name, i, j, f, e, b)
				}
			}
		}
	}
}

// rootScores scores one complex dim against a query at zero, so that each
// score is minus the root of x = fl32(a²), a = float32(√target) for each
// target: the float32 kernel's against the Go kernel's. It fails the test
// where one lies outside certBound (x = 0 may give NaN), and returns the
// largest share of the bound and the largest relative miss.
func rootScores(t *testing.T, lane vecLane, what string, targets []float64) (worst, miss float64) {
	t.Helper()
	rows := make([]float64, 0, 2*len(targets))
	for _, x := range targets {
		rows = append(rows, float64(float32(math.Sqrt(x))), 0)
	}
	want := make([]float64, len(targets))
	scoreRotTile([]float64{0, 0}, rows, 2, 0, len(targets), len(targets), want)
	got, maxAbs, err := certScores(lane, kindRot, []float64{0, 0}, rows, 2, 0, len(targets))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := certBound(kindRot, 2, 0, maxAbs, 0)
	if !ok {
		t.Fatalf("%s %s: no bound for max|c| = %v", lane.name, what, maxAbs)
	}
	for j, s := range want {
		f := got[j]
		if f != f && rows[2*j] != 0 || !within(f, s, b) {
			t.Fatalf("%s %s: the root of %v scores %v, the Go kernel %v, bound %+v", lane.name, what, rows[2*j]*rows[2*j], f, s, b)
		}
		worst = max(worst, share(f, s, b))
		if f == f && s != 0 {
			miss = max(miss, math.Abs(f-s)/math.Abs(s))
		}
	}
	return worst, miss
}

// RotatE's float32 root on every class of hard input at dim 2: x at the
// edges of every binade of float32's range and at a few ulps from them,
// squares of float32 values with long mantissas, x in float32's subnormals,
// and zero, which must give NaN or the root.
func TestCertRotHardRoots(t *testing.T) {
	lanes := needCertLane(t)
	rng := rand.New(rand.NewSource(41))
	classes := map[string][]float64{}
	for k := -140; k <= 110; k++ {
		p := math.Ldexp(1, k)
		for m := -3; m <= 3; m++ {
			classes["binade edges"] = append(classes["binade edges"], p*(1+float64(m)*0x1p-23))
		}
	}
	for i := 0; i < 2000; i++ {
		a := math.Ldexp(1+float64(rng.Intn(1<<23))*0x1p-23, rng.Intn(110)-55)
		classes["long mantissas"] = append(classes["long mantissas"], a*a)
	}
	for k := 0; k < 24; k++ {
		classes["subnormal x"] = append(classes["subnormal x"], math.Ldexp(1+rng.Float64(), -149+k))
	}
	classes["zero"] = []float64{0, 0, 0}
	for _, lane := range lanes {
		worst, miss := 0.0, 0.0
		for name, xs := range classes {
			w, m := rootScores(t, lane, name, xs)
			worst, miss = max(worst, w), max(miss, m)
		}
		t.Logf("%s: the largest relative miss 2^%.2f, %.3g of the bound", lane.name, math.Log2(miss), worst)
	}
}

// Random inputs, 10⁷ roots (10⁶ under -short), with exponents from 2⁻⁵⁷ to
// 2⁵⁷ (the gate is 2⁶⁰), each score within its bound, and the largest share
// logged.
func TestCertRotRandomRoots(t *testing.T) {
	lanes := needCertLane(t)
	total := 10_000_000
	if testing.Short() {
		total = 1_000_000
	}
	const n = 4096
	rng := rand.New(rand.NewSource(43))
	normal := func() float64 {
		bits := rng.Uint64()&(1<<52-1) | uint64(1023+rng.Intn(115)-57)<<52 | rng.Uint64()&(1<<63)
		return math.Float64frombits(bits)
	}
	qs, rows := make([]float64, 2), make([]float64, 2*n)
	want := make([]float64, n)
	for _, lane := range lanes {
		worst := 0.0
		for done := 0; done < total; done += n {
			qs[0], qs[1] = normal(), normal()
			for i := range rows {
				rows[i] = normal()
			}
			scoreRotTile(qs, rows, 2, 0, n, n, want)
			got, maxAbs, err := certScores(lane, kindRot, qs, rows, 2, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			b, ok := certBound(kindRot, 2, norm1(qs), maxAbs, 0)
			if !ok {
				t.Fatalf("no bound for ‖q‖₁ = %v, max|c| = %v", norm1(qs), maxAbs)
			}
			for j, s := range want {
				f := got[j]
				if f != f || !within(f, s, b) {
					t.Fatalf("%s: score %v, Go kernel %v: %.3g of the bound %+v", lane.name, f, s, share(f, s, b), b)
				}
				worst = max(worst, share(f, s, b))
			}
		}
		t.Logf("%s: %d roots, the largest share of the bound %.3g", lane.name, total, worst)
	}
}

// adversary makes inputs whose float32 roundings all fall one way: it
// returns the float32 f moved by just under half its spacing, away from
// zero (away) or toward it, so that float32(v) = f misses v by nearly
// u·|v| and always on the same side.
func adversary(f float32, away bool) float64 {
	d := (0.5 - 0x1p-12) * ulp32(f)
	if !away {
		d = -(0.5 - 0x1p-12) * ulp32(math.Nextafter32(f, 0))
	}
	if f < 0 {
		d = -d
	}
	return float64(f) + d
}

// near is a random float32 in [1, 1 + spread)·2ᵉ.
func near(rng *rand.Rand, spread float64, e int) float32 {
	return float32(math.Ldexp(1+spread*rng.Float64(), e))
}

// Adversarial inputs must come within half of each kind's bound, and stay
// inside it: the dot kernel over values that all round away from zero at
// dims 1 to 3 (the inputs' 2u and the sum's roundings add up), and over
// values on both sides of float32's subnormal edge (absolute roundings of
// 2⁻¹⁵⁰); the L1 kernel over a query that rounds down and candidates that
// round up near it, over values of two scales (a query near 1, candidates
// of the other sign far smaller: the inputs, Q + C and the last step each
// round by up to u of the same size, which is what the bound's Rel is
// for), and over float32 subnormals; RotatE's root at the edges of binades,
// where VRSQRT14PS misses most, and candidates whose float32 roundings
// pull them a whole spacing from a query half a spacing away (what the
// bound's Abs is for). The search keeps the worst of many draws; each
// family's worst share is logged.
func TestCertAdversarialReachHalfTheBound(t *testing.T) {
	lanes := needCertLane(t)
	const draws = 4000
	for _, lane := range lanes {
		best := map[tileKind]float64{}
		run := func(family string, kind tileKind, dim int, gen func(rng *rand.Rand) (qs, rows []float64)) {
			rng := rand.New(rand.NewSource(int64(dim)*131 + int64(kind)))
			worst := 0.0
			for range draws / 16 {
				qs, rows := gen(rng)
				w, err := checkCertKernel(lane, kind, qs, rows, dim, 0, 0)
				if err != nil {
					t.Fatalf("%s: %v", family, err)
				}
				worst = max(worst, w)
			}
			t.Logf("%s %v dim=%d %s: the worst is %.3g of the bound", lane.name, kind, dim, family, worst)
			best[kind] = max(best[kind], worst)
		}
		for dim := 1; dim <= 3; dim++ {
			run("one-way", kindDot, dim, func(rng *rand.Rand) (qs, rows []float64) {
				qs = make([]float64, dim)
				for k := range qs {
					qs[k] = adversary(near(rng, 1, 0), true)
				}
				rows = make([]float64, 16*dim)
				for k := range rows {
					rows[k] = adversary(near(rng, 1, 0), true)
				}
				return qs, rows
			})
			run("subnormal edge", kindDot, dim, func(rng *rand.Rand) (qs, rows []float64) {
				qs = make([]float64, dim)
				for k := range qs {
					qs[k] = adversary(near(rng, 1, -140+rng.Intn(20)), true)
				}
				rows = make([]float64, 16*dim)
				for k := range rows {
					rows[k] = adversary(near(rng, 1, -1+rng.Intn(2)), true)
				}
				return qs, rows
			})
			run("one-way", kindL1, dim, func(rng *rand.Rand) (qs, rows []float64) {
				qs = make([]float64, dim)
				for k := range qs {
					qs[k] = adversary(near(rng, 1, 0), false)
				}
				rows = make([]float64, 16*dim)
				for j := 0; j < 16; j++ {
					for k := range dim {
						rows[j*dim+k] = adversary(near(rng, 1, 0), true)
						if rows[j*dim+k] > qs[k] {
							rows[j*dim+k] = math.Nextafter(qs[k]-float64(ulp32(float32(qs[k])))*float64(1+rng.Intn(4)), 0)
						}
					}
				}
				return qs, rows
			})
			run("two scales", kindL1, dim, func(rng *rand.Rand) (qs, rows []float64) {
				qs = make([]float64, dim)
				for k := range qs {
					qs[k] = adversary(near(rng, 0.1, 0), false)
				}
				rows = make([]float64, 16*dim)
				for k := range rows {
					rows[k] = adversary(-near(rng, 1, -4-rng.Intn(16)), false)
				}
				return qs, rows
			})
			run("subnormal edge", kindL1, dim, func(rng *rand.Rand) (qs, rows []float64) {
				qs = make([]float64, dim)
				for k := range qs {
					qs[k] = 0x1p-149 * (float64(rng.Intn(64)) + 0.5 - 0x1p-12)
				}
				rows = make([]float64, 16*dim)
				for k := range rows {
					rows[k] = -0x1p-149 * (float64(rng.Intn(64)) + 0.5 - 0x1p-12)
				}
				return qs, rows
			})
		}
		run("a spacing apart", kindRot, 2, func(rng *rand.Rand) (qs, rows []float64) {
			re, im := near(rng, 0.05, 0), near(rng, 0.05, 0)
			qs = []float64{adversary(re, true), adversary(im, true)}
			rows = make([]float64, 0, 32)
			for range 16 {
				rows = append(rows, adversary(math.Nextafter32(re, 2), false), adversary(math.Nextafter32(im, 2), false))
			}
			return qs, rows
		})
		run("binade edges", kindRot, 2, func(rng *rand.Rand) (qs, rows []float64) {
			rows = make([]float64, 0, 32)
			for range 16 {
				x := math.Ldexp(1+float64(rng.Intn(64)-32)*0x1p-23, rng.Intn(100)-50)
				rows = append(rows, float64(float32(math.Sqrt(x))), 0)
			}
			return []float64{0, 0}, rows
		})
		for kind := kindDot; kind < numKinds; kind++ {
			if best[kind] < 0.5 {
				t.Errorf("%s %v: the adversarial inputs reach %.3g of the bound, not half", lane.name, kind, best[kind])
			}
		}
	}
}

// Two of certBound's terms each cover one error source that an input can
// drive to nearly the whole term while every other source of the score is
// zero, so here each is measured alone against the term certBound states,
// and must stay within it and pass half of it: halving the term's constant
// fails this test.
//
//   - L1's Rel u is the last step's rounding, f = fl(T − 2M). At dim 1, with
//     q = 1.5 and c = −(0.5 + 2⁻²³) (float32 values), T = q + c = 1 − 2⁻²³ is
//     exact and T − 2M = −(2 + 2⁻²³) lies halfway between two float32s: the
//     last step rounds it to −2, by 2⁻²³ = u·|f|, and nothing else rounds, so
//     |f − s| is that rounding alone. The same at other scales.
//   - RotatE's (n + 4)·u is mostly the float32 sum's n·u. With q = 0 and
//     each difference in the real part alone (or equal in both) and a power
//     of two, every x is a power of two, so each term t = x·VRSQRT14PS(x) is a
//     float32 the kernel writes on its own at dim 2. A first term t₀ just
//     above a power of two and n − 1 terms of half its float32 spacing make
//     each of the n − 1 adds round by half a spacing, all one way. The sum's
//     error is taken against the exact sum of the same terms (math/big).
//
// The other two constants that no test held cannot be held this way: a
// subnormal x rounds a root by at most (1 − √½)·2⁻⁷⁴, about 0.29 of
// RotatE's n·2⁻⁷⁴ per complex dim (the adversary that reaches it is logged
// here), and the bias's two float64 roundings reach at most 2⁻⁵²·|f|, half
// of its 2⁻⁵¹. Halved, both constants still cover their sources.
func TestCertTermsHeldAlone(t *testing.T) {
	lanes := needCertLane(t)
	for _, lane := range lanes {
		for _, e := range []int{-40, 0, 40} {
			q, c := math.Ldexp(1.5, e), math.Ldexp(-(0.5+0x1p-23), e)
			if float64(float32(q)+float32(c)) != q+c {
				t.Fatalf("scale 2^%d: T = q + c rounds, so the last step is not alone", e)
			}
			rows := []float64{c}
			got, maxAbs, err := certScores(lane, kindL1, []float64{q}, rows, 1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, 1)
			scoreL1Tile([]float64{q}, rows, 1, 0, 1, 1, want)
			b, ok := certBound(kindL1, 1, q, maxAbs, 0)
			f, s := got[0], want[0]
			reach := math.Abs(f-s) / (b.Rel * math.Abs(f))
			t.Logf("%s L1 at 2^%d: the last step rounds by %.3g of Rel·|f|", lane.name, e, reach)
			if !ok || !(reach > 0.5 && reach <= 1) {
				t.Errorf("%s L1 at 2^%d: f = %v, s = %v, bound %+v (%v): the last step's rounding is %v of Rel·|f|, not in (½, 1]",
					lane.name, e, f, s, b, ok, reach)
			}
		}

		// term is t = x·VRSQRT14PS(x) for the difference (re, im), x a power of two.
		term := func(re, im float64) float64 {
			got, _, err := certScores(lane, kindRot, []float64{0, 0}, []float64{-re, -im}, 2, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			return -got[0]
		}
		// The first term: x = 1 or x = 2, whichever puts t₀ nearer above a
		// power of two, where half its spacing is the largest share of it.
		re0, im0, t0 := 1.0, 0.0, term(1, 0)
		if t2 := term(1, 1); t2/math.Exp2(math.Floor(math.Log2(t2))) < t0/math.Exp2(math.Floor(math.Log2(t0))) {
			im0, t0 = 1, t2
		}
		half := ulp32(float32(t0)) / 2
		tk := term(half, 0)
		for _, n := range []int{16, 256} {
			dim := 2 * n
			row := make([]float64, dim)
			row[0], row[n] = -re0, -im0
			for k := 1; k < n; k++ {
				row[k] = -half
			}
			got, maxAbs, err := certScores(lane, kindRot, make([]float64, dim), row, dim, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			exact := new(big.Float).SetPrec(256).SetFloat64(tk)
			exact.Mul(exact, big.NewFloat(float64(n-1)))
			exact.Add(exact, big.NewFloat(t0))
			sumErr, _ := new(big.Float).Sub(big.NewFloat(-got[0]), exact).Float64()
			b, ok := certBound(kindRot, dim, 0, maxAbs, 0)
			reach := math.Abs(sumErr) / ((b.Rel - 0x1p-14) * math.Abs(got[0]))
			t.Logf("%s RotatE n=%d: the float32 sum errs by %.3g of (n + 4)·u·|f|", lane.name, n, reach)
			if !ok || !(reach > 0.5 && reach <= 1) {
				t.Errorf("%s RotatE n=%d: t₀ = %v, n − 1 terms of %v sum to %v, exactly %v: %v of (n + 4)·u·|f| (bound %+v, %v), not in (½, 1]",
					lane.name, n, t0, tk, -got[0], exact, reach, b, ok)
			}
		}

		// The subnormal root: both differences 2⁻⁷⁵·(1 + 2⁻²³), so Δim² rounds
		// up to 2⁻¹⁴⁹ and x to 2⁻¹⁴⁸, whose root is 2⁻⁷⁴ for r̃ ≈ √½·2⁻⁷⁴.
		const n = 64
		d := float64(math.Nextafter32(0x1p-75, 1))
		row := make([]float64, 2*n)
		for k := range row {
			row[k] = -d
		}
		q := make([]float64, 2*n)
		got, maxAbs, err := certScores(lane, kindRot, q, row, 2*n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 1)
		scoreRotTile(q, row, 2*n, 0, 1, 1, want)
		b, ok := certBound(kindRot, 2*n, 0, maxAbs, 0)
		if !ok || !within(got[0], want[0], b) {
			t.Errorf("%s RotatE subnormal x: %v, Go kernel %v, bound %+v (%v)", lane.name, got[0], want[0], b, ok)
		}
		t.Logf("%s RotatE subnormal x: |f − s| is %.3g of n·2⁻⁷⁴", lane.name, math.Abs(got[0]-want[0])/(n*0x1p-74))
	}
}

// TestRankBlockWithinBounds is the whole rank path of each scorer against
// its scoreBlock: all seven models, all three precisions, both directions,
// dims 2 to 128, pools that leave sub-group tails, and entity rows planted
// with exact duplicates, huge values (past the overflow gate), infinities and
// NaNs. Every score RankBlock writes is within the Bound it reports for its
// query, and a query reported with the zero Bound has scoreBlock's bits.
// Rescore writes scoreBlock's bits for any query and candidates.
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
						s.scoreBlock(cands, want)
						s.RankBlock(cands, got, bounds)
						for i, b := range bounds {
							if b != (Bound{}) {
								approximate++
							}
							for j := range nc {
								f, e := got[i*nc+j], want[i*nc+j]
								if b == (Bound{}) && !sameScore(f, e) || !within(f, e, b) {
									t.Fatalf("%s dim=%d %v tails=%v planted=%v: query %d candidate %d: RankBlock %v, scoreBlock %v, bound %+v",
										m.Name(), dim, p, tails, planted, i, cands[j], f, e, b)
								}
							}
							again := make([]float64, nc)
							s.Rescore(i, cands, again)
							for j := range nc {
								if !sameScore(again[j], want[i*nc+j]) {
									t.Fatalf("%s dim=%d %v: Rescore of query %d candidate %d is %v, scoreBlock %v",
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
