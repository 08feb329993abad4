package kgc

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"kgeval/internal/cpu"
	"kgeval/internal/kg"
	"kgeval/internal/kgc/store"
)

// The vector lanes' gate. The Go tile kernels — untouched, and themselves
// held to the gather oracle in tile_lane_test.go — are the oracle for their
// assembly twins: every score must have the same bits, because the protocol
// ranks by float equality. Every lane the CPU can run (vecLanes: avx2, and
// avx512 where present) is held to them, not only the installed one, so the
// 256-bit twins stay tested on a 512-bit host. On a host without a vector
// lane (non-amd64, -tags purego, no AVX2) there is nothing to compare and
// these tests skip.

func (k tileKind) String() string { return [...]string{"Dot", "L1", "Rot"}[k] }

func needVectorLane(t testing.TB) {
	t.Helper()
	if len(vecLanes) == 0 {
		t.Skip("no vector lane in this build or on this CPU: the Go kernels are the only lane")
	}
}

// sameScore is equality of bits, except that any NaN equals any NaN: which
// payload survives an operation on two NaNs is not part of the contract.
func sameScore(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// sentinel marks memory a kernel must not write. It is a NaN with a payload
// no arithmetic produces, compared by bits.
var sentinel = math.Float64frombits(0x7ff8dead0000beef)

// guarded returns a length-n slice whose capacity ends at its length, cut
// from the middle of a sentinel-filled array, and a check that the words on
// either side are still sentinels.
func guarded(n int) (buf []float64, intact func() bool) {
	const guard = 16
	mem := make([]float64, guard+n+guard)
	for i := range mem {
		mem[i] = sentinel
	}
	return mem[guard : guard+n : guard+n], func() bool {
		for i := 0; i < guard; i++ {
			if math.Float64bits(mem[i]) != math.Float64bits(sentinel) ||
				math.Float64bits(mem[guard+n+i]) != math.Float64bits(sentinel) {
				return false
			}
		}
		return true
	}
}

// transposed returns the candidate-minor layout of n row-major rows.
func transposed(rows []float64, n, dim int) []float64 {
	cols := make([]float64, n*dim)
	for t := 0; t < n; t++ {
		for k := 0; k < dim; k++ {
			cols[k*n+t] = rows[t*dim+k]
		}
	}
	return cols
}

// checkTileKernels runs one kernel pair on one shape and reports the first
// difference: lane's vector kernel must write exactly what the Go kernel
// writes — out[i*nc+j] for j0 <= j < j1 — and nothing else, inside out or
// around it.
func checkTileKernels(lane vecLane, kind tileKind, qs, rows []float64, dim, j0, j1, nc int) error {
	nq, n := len(qs)/dim, j1-j0
	want := make([]float64, nq*nc)
	for i := range want {
		want[i] = sentinel
	}
	goKernels[kind](qs, rows, dim, j0, j1, nc, want)

	got, outIntact := guarded(nq * nc)
	for i := range got {
		got[i] = sentinel
	}
	cols, colsIntact := guarded(n * dim)
	copy(cols, transposed(rows, n, dim))
	lane.kernels[kind](qs, cols, dim, j0, j1, nc, got)
	for i := range want {
		if !sameScore(got[i], want[i]) {
			return fmt.Errorf("%s %v dim=%d nq=%d tile=[%d,%d) of %d: out[%d] = %x (%v), Go kernel %x (%v)",
				lane.name, kind, dim, nq, j0, j1, nc, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	if !outIntact() || !colsIntact() {
		return fmt.Errorf("%s %v dim=%d nq=%d tile=[%d,%d) of %d: wrote outside its buffers", lane.name, kind, dim, nq, j0, j1, nc)
	}
	return nil
}

// specials are planted among random values so that signed zeros, infinities
// (and the NaNs their differences and products make) and exact ties reach
// every lane position.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 0.5, math.SmallestNonzeroFloat64, math.MaxFloat64}

func plantedVec(rng *rand.Rand, n int) []float64 {
	v := randVec(rng, n)
	for i := range v {
		if rng.Intn(16) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// Each lane's assembly kernels against the three Go kernels, directly: every
// accumulator width (tiles of 4 to 100 candidates, each remainder of the
// 512-bit groups included), odd and tiny dims, even and odd query counts (the
// 512-bit kernels take queries in pairs), a tile in the middle of a wider
// pool, and no write outside the tile's scores.
func TestVectorKernelsMatchGoKernels(t *testing.T) {
	needVectorLane(t)
	for _, lane := range vecLanes {
		rng := rand.New(rand.NewSource(5))
		for kind := kindDot; kind < numKinds; kind++ {
			for _, dim := range []int{1, 2, 3, 4, 7, 32, 64, 100, 128, 256} {
				if kind == kindRot && dim < 2 {
					continue // no complex dim: vecTile rejects it
				}
				for _, n := range []int{4, 8, 12, 16, 24, 28, 32, 36, 44, 60, 64, 100} {
					for _, nq := range []int{1, 2, 5, 54} {
						qs, rows := plantedVec(rng, nq*dim), plantedVec(rng, n*dim)
						copy(rows[dim:2*dim], rows[:dim]) // candidates 0 and 1 tie exactly
						j0 := rng.Intn(7)
						if err := checkTileKernels(lane, kind, qs, rows, dim, j0, j0+n, j0+n+rng.Intn(5)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// funcID is the closure a func value points at: vecTile and vecRowAcc build
// a fresh one for every kernel they wrap, so two lanes' entries never share
// one.
func funcID[F any](f F) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&f))
}

// The installed kernels are the widest lane's: vecKernels and certKernels
// are its two sets, and on an AVX-512 host the rank path runs no 256-bit
// kernel — a certified float32 kernel of every kind. The exact dot and
// RotatE scores there come from the AVX2 twins by design, since the 512-bit
// lane has no exact twin of those two. The lanes' ranks are the same, so an init elsewhere in the
// package that ran after tile_amd64.go's and put back the 256-bit kernels
// would pass every other test and show only in a timing.
func TestWidestLaneIsInstalled(t *testing.T) {
	want := "go"
	switch {
	case cpu.AVX512:
		want = "avx512"
	case cpu.AVX2:
		want = "avx2"
	}
	if Kernel() != want {
		t.Fatalf("Kernel() = %q, the CPU runs %q", Kernel(), want)
	}
	if want == "go" {
		for kind := kindDot; kind < numKinds; kind++ {
			if vecKernels[kind] != nil || certKernels[kind] != nil {
				t.Fatalf("%v: a vector kernel is installed on the Go lane", kind)
			}
		}
		if funcID(rowAcc) != funcID(rowAccGo) || funcID(conv) != funcID(convGo) {
			t.Fatal("a vector query builder is installed on the Go lane")
		}
		return
	}
	widest := vecLanes[len(vecLanes)-1]
	for kind := kindDot; kind < numKinds; kind++ {
		if funcID(vecKernels[kind]) != funcID(widest.kernels[kind]) || funcID(certKernels[kind]) != funcID(widest.cert[kind]) {
			t.Errorf("%v: the installed kernels are not the %s lane's", kind, widest.name)
		}
	}
	if funcID(rowAcc) != funcID(widest.rowAcc) || funcID(conv) != funcID(widest.conv) {
		t.Errorf("the installed query builders are not the %s lane's", widest.name)
	}
	if cpu.AVX512 {
		avx2 := vecLanes[0]
		if funcID(rowAcc) == funcID(avx2.rowAcc) {
			t.Error("the query builders run the avx2 row-accumulate")
		}
		for kind := kindDot; kind < numKinds; kind++ {
			if certKernels[kind] == nil {
				t.Errorf("%v: the 512-bit lane ranks without a certified kernel", kind)
			}
		}
	}
}

// vecTile is the boundary in front of the assembly: a shape the kernels do
// not take, or storage shorter than the shape, panics in Go.
func TestVectorKernelRejectsBadShapes(t *testing.T) {
	needVectorLane(t)
	const dim, nq = 8, 3
	for name, c := range map[string]struct {
		kind            tileKind
		qs, cols, out   int
		dim, j0, j1, nc int
	}{
		"not a multiple of four": {kindDot, nq * dim, 6 * dim, nq * 6, dim, 0, 6, 6},
		"empty tile":             {kindL1, nq * dim, 4 * dim, nq * 4, dim, 2, 2, 4},
		"tile past the pool":     {kindDot, nq * dim, 8 * dim, nq * 8, dim, 4, 12, 8},
		"negative start":         {kindDot, nq * dim, 4 * dim, nq * 4, dim, -4, 0, 4},
		"short tile":             {kindL1, nq * dim, 4*dim - 1, nq * 4, dim, 0, 4, 4},
		"short scores":           {kindRot, nq * dim, 4 * dim, nq*4 - 1, dim, 0, 4, 4},
		"RotatE without a dim":   {kindRot, nq, 4, nq * 4, 1, 0, 4, 4},
	} {
		for _, lane := range vecLanes {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: the vector kernel wrapper did not panic", lane.name, name)
					}
				}()
				lane.kernels[c.kind](make([]float64, c.qs), make([]float64, c.cols), c.dim, c.j0, c.j1, c.nc, make([]float64, c.out))
			}()
		}
	}
}

// vecRowAcc is the same boundary in front of the row-accumulate: rows
// shorter than the last row the shape reads, or a stride that steps back
// into memory before them, panics in Go.
func TestRowAccumulateRejectsBadShapes(t *testing.T) {
	needVectorLane(t)
	const n, nrows = 8, 3
	for _, lane := range vecLanes {
		for name, c := range map[string]struct{ rows, stride int }{
			"short last row":  {2*n + n - 1, n},
			"negative stride": {3 * n, -1},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: the row-accumulate wrapper did not panic", lane.name, name)
					}
				}()
				lane.rowAcc(make([]float64, n), make([]float64, nrows), make([]float64, c.rows), c.stride, false)
			}()
		}
	}
}

// vecConv is the boundary in front of the conv layer: features or pre-BN
// sums shorter than the image's four channels panic in Go.
func TestConvRejectsBadShapes(t *testing.T) {
	needVectorLane(t)
	for _, lane := range vecLanes {
		const img = 6 * convDW
		for name, c := range map[string]struct{ pre, feat int }{
			"short features":    {-1, convChannels*img - 1},
			"short pre-BN sums": {convChannels*img - 1, convChannels * img},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: the conv wrapper did not panic", lane.name, name)
					}
				}()
				var pre []float64
				if c.pre >= 0 {
					pre = make([]float64, c.pre)
				}
				lane.conv(new(convWeights), make([]float64, img), pre, make([]float64, c.feat))
			}()
		}
	}
}

// A candidate id outside the entity table — what a faulty third-party
// CandidateProvider could hand the executor — is a Go bounds panic on both
// lanes, raised before any row pointer exists for the assembly to follow.
func TestOutOfRangeCandidatePanicsInGo(t *testing.T) {
	const rows, dim = 64, 16
	g := &kg.Graph{NumEntities: rows, NumRelations: 2}
	for _, m := range []Model{NewDistMult(g, dim, 1), NewTransE(g, dim, 1), NewRotatE(g, dim, 1)} {
		for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
			for _, bad := range []int32{rows, rows + 1000, -1} {
				for _, at := range []int{0, 5, 8, 10} { // inside a vector group, and in a pool's Go-scored tail
					cands := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
					cands[at] = bad
					func() {
						defer func() {
							err, ok := recover().(runtime.Error)
							if !ok || !strings.Contains(err.Error(), "out of range") {
								t.Errorf("%s %v id=%d at %d: recovered %v, want a bounds panic", m.Name(), p, bad, at, err)
							}
						}()
						bs := NewBatchScorer(m, BatchOptions{Precision: p, Tile: 8})
						bs.ScoreTailsBatch([]int32{0, 1}, 0, cands, make([]float64, 2*len(cands)))
					}()
				}
			}
		}
	}
}

// TestVectorLaneMatchesGoKernels is each whole lane against the whole Go
// lane through NewBatchScorer: scorers over the same model and store, one
// with its vector kernel taken away and one per lane of vecLanes, must fill
// out with the same bits — over every dim and tile the kernels specialise
// on, chunk sizes from one query to the planner's 54, consecutive and
// scattered pools whose length leaves sub-group tails, all three
// precisions, both directions, all seven models, and entity rows planted
// with exact duplicates, signed zeros and infinities.
func TestVectorLaneMatchesGoKernels(t *testing.T) {
	needVectorLane(t)
	const rows = 260
	g := &kg.Graph{NumEntities: rows, NumRelations: 3}
	dims := []int{1, 2, 3, 4, 7, 32, 64, 100, 128, 256}
	if testing.Short() {
		dims = []int{3, 4, 32, 100}
	}
	tiles := []int{1, 3, 4, 5, 8, 24, 28, 32, 64, 100}
	ents := make([]int32, 54)
	rng := rand.New(rand.NewSource(17))
	for i := range ents {
		ents[i] = int32(rng.Intn(rows))
	}
	compared := 0
	for _, dim := range dims {
		for _, m := range laneModels(t, g, dim, 23) {
			if m.Name() == "TuckER" && dim > 64 {
				continue // its core tensor is dim³ values: 134 MB at 256, and its kernel is DistMult's
			}
			// Plant before the first scorer: the reduced-precision stores
			// snapshot the table when first used.
			w, d := m.(batchNative).lane().ent.w, m.Dim()
			copy(w[41*d:42*d], w[40*d:41*d])
			copy(w[200*d:201*d], w[40*d:41*d])
			for i, v := range specials[:4] {
				w[(50+i)*d+i%d] = v
				w[(120+i)*d+(d-1)] = v
			}
			for _, p := range []store.Precision{store.Float64, store.Float32, store.Int8} {
				for _, tile := range tiles {
					ref := NewBatchScorer(m, BatchOptions{Precision: p, Tile: tile}).(*storeScorer)
					ref.vec = nil
					vecs := make([]*storeScorer, len(vecLanes))
					for l, lane := range vecLanes {
						vecs[l] = NewBatchScorer(m, BatchOptions{Precision: p, Tile: tile}).(*storeScorer)
						vecs[l].vec = lane.kernels[vecs[l].m.lane().kind]
					}
					n := 2*tile + 3
					pools := map[string][]int32{"consecutive": make([]int32, n), "scattered": make([]int32, n)}
					for j := 0; j < n; j++ {
						pools["consecutive"][j] = int32(38 + j)
						pools["scattered"][j] = int32(rng.Intn(rows))
					}
					copy(pools["scattered"], []int32{40, 200, 41, 50, 51, 52, 53})
					for pname, cands := range pools {
						for _, nq := range []int{1, 5, 54} {
							for _, tails := range []bool{true, false} {
								score := func(s *storeScorer, out []float64) {
									if tails {
										s.ScoreTailsBatch(ents[:nq], 1, cands, out)
									} else {
										scoreHeadsBatch(s, ents[:nq], 1, cands, out)
									}
								}
								want := make([]float64, nq*n)
								score(ref, want)
								for l, vec := range vecs {
									got := make([]float64, nq*n)
									score(vec, got)
									for i := range want {
										if !sameScore(got[i], want[i]) {
											t.Fatalf("%s %s dim=%d %v tile=%d %s nq=%d tails=%v: score[%d] = %x (%v), Go lane %x (%v)",
												vecLanes[l].name, m.Name(), dim, p, tile, pname, nq, tails, i,
												math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
										}
									}
									compared += len(want)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d scores compared by bits", compared)
}

// FuzzTileKernels lets the fuzzer pick the shape (kernel, dim, candidate
// groups, queries, where the tile sits in its pool) and the bytes of every
// query and candidate value, and holds every lane's exact assembly (the
// 256-bit twins, and the 512-bit L1 twin where the CPU has it) to the Go
// kernels by bits and to its buffers by guard words, and the 512-bit lane's
// certified float32 dot (four queries at a time), L1 and RotatE kernels to
// them within certBound, over a tile of any width (the group's candidates
// less padB mod 4, so the last register's masked store sees every count).
func FuzzTileKernels(f *testing.F) {
	needVectorLane(f)
	special := make([]byte, 0, 8*len(specials))
	for _, v := range specials {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(v))
	}
	f.Add(uint8(0), uint8(8), uint8(8), uint8(3), uint8(0), special)
	f.Add(uint8(1), uint8(5), uint8(1), uint8(1), uint8(2), special)
	f.Add(uint8(2), uint8(6), uint8(9), uint8(5), uint8(1), special)
	f.Add(uint8(2), uint8(3), uint8(13), uint8(2), uint8(3), []byte{1, 2, 3})
	// RotatE at dim 2, one query at zero against 32 candidates, so each
	// candidate's x = Δre² + Δim² is a chosen value for the 512-bit lane's
	// approximate root: near 2^±900, perfect squares and their neighbours,
	// and sums of squares that are subnormal or zero.
	p900 := math.Ldexp(1, 900)
	guard := []float64{
		math.Nextafter(1/p900, 0), 1 / p900, math.Nextafter(1/p900, 1),
		math.Nextafter(p900, 0), p900, math.Nextafter(p900, math.Inf(1)),
	}
	squares := []float64{9, math.Nextafter(9, 0), math.Nextafter(9, 10), 0x1p-600 * 49, math.Nextafter(0x1p-600*49, 0), 0x1p600 * 25}
	for _, xs := range [][]float64{guard, squares} {
		f.Add(uint8(2), uint8(1), uint8(7), uint8(0), uint8(0), rotSeed(xs))
	}
	subnormal := make([]byte, 16, 16+8*4)
	for _, v := range []float64{0x1p-530, 0x1p-537, math.SmallestNonzeroFloat64, 0} {
		subnormal = binary.LittleEndian.AppendUint64(subnormal, math.Float64bits(v))
	}
	f.Add(uint8(2), uint8(1), uint8(7), uint8(0), uint8(0), subnormal)
	// L1 where the certified kernel's Q + C − 2M nearly cancels: values a
	// relative 2⁻⁴⁵ apart at 2^±600, seven of them cycled over rows of six,
	// so every candidate lies near every query; rows of five repeating five
	// values, so every candidate equals the query (score 0); and the
	// specials (±0, subnormal, ±Inf, the largest float) under four queries.
	for _, e := range []int{-600, 600} {
		near := make([]byte, 0, 8*7)
		for k := range 7 {
			near = binary.LittleEndian.AppendUint64(near, math.Float64bits(math.Ldexp(1+float64(k)*0x1p-45, e)))
		}
		f.Add(uint8(1), uint8(5), uint8(14), uint8(1), uint8(0), near)
		f.Add(uint8(1), uint8(4), uint8(9), uint8(3), uint8(2), near[:8*5])
	}
	f.Add(uint8(1), uint8(8), uint8(17), uint8(3), uint8(1), special)
	// A dot query of subnormal values against candidates near 2¹⁷⁹: the
	// bound's n·2⁻⁵²·‖q‖₁ underflowed before max|c| could lift it when
	// certBound multiplied in that order.
	f.Add(uint8(0), uint8(2), uint8(4), uint8(1), uint8(0), []byte("A\x00\x009c1\x02\x000\x00\x001e"))
	f.Fuzz(func(t *testing.T, kindB, dimB, groupsB, nqB, padB uint8, data []byte) {
		kind := tileKind(kindB % uint8(numKinds))
		dim := 1 + int(dimB)%80
		if kind == kindRot && dim < 2 {
			dim = 2
		}
		n := 4 * (1 + int(groupsB)%18)
		nq := 1 + int(nqB)%6
		j0 := int(padB) % 5
		nc := j0 + n + int(padB)/5%4
		vals := fuzzFloats(data, (nq+n)*dim)
		for _, lane := range vecLanes {
			if err := checkTileKernels(lane, kind, vals[:nq*dim], vals[nq*dim:], dim, j0, j0+n, nc); err != nil {
				t.Fatal(err)
			}
			if lane.cert[kind] != nil {
				cn := n - int(padB)%4
				if _, err := checkCertKernel(lane, kind, vals[:nq*dim], vals[nq*dim:(nq+cn)*dim], dim, j0, nc-j0-cn); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// modPair returns (a, b) such that a² + b², each square and the sum rounded
// as kgc.cmod rounds them, is exactly x, for a normal x far enough above the
// subnormals that b² is normal too: a is √x cut to 26 significant bits (one
// step of that grid lower if √x rounded up to it), so a² is exact and within
// 2⁻²⁴·x below x, and b = √(x − a²) brings the rest, whose rounding is far
// below half an ulp of x.
func modPair(x float64) (a, b float64) {
	bits := math.Float64bits(math.Sqrt(x)) &^ (1<<27 - 1)
	if a = math.Float64frombits(bits); a*a > x {
		a = math.Float64frombits(bits - 1<<27)
	}
	return a, math.Sqrt(x - a*a)
}

// rotSeed is FuzzTileKernels input for RotatE at dim 2: a query at zero, then
// candidates whose squared moduli are xs, in turn.
func rotSeed(xs []float64) []byte {
	data := make([]byte, 16, 16*(1+len(xs)))
	for _, x := range xs {
		a, b := modPair(x)
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(a))
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(b))
	}
	return data
}

// fuzzFloats returns n values made of the fuzzer's bytes, eight at a time,
// repeated to fill (zeros when there are none).
func fuzzFloats(data []byte, n int) []float64 {
	vals := make([]float64, n)
	var word [8]byte
	for i := range vals {
		for b := range word {
			word[b] = 0
			if len(data) > 0 {
				word[b] = data[(8*i+b)%len(data)]
			}
		}
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
	}
	return vals
}

// FuzzRowAccumulate holds each lane's assembly row-accumulate under the
// query builders (four and eight outputs a register) to rowAccGo: the same
// bits in every output (sameScore) and no write past out (guard words). The
// fuzzer picks the outputs n, the row
// count (zero included), the row stride (n or more), whether zero
// coefficients are skipped, and the bytes of the starting outputs, the
// coefficients and the rows. The seeds cover every n mod 4 in each group
// width, zero rows, strides past n (long enough to split the rows across
// kernel calls), and ±0, NaN, ±Inf and subnormal coefficients and row
// values, with and without the skip. n runs past 64, the widest group.
func FuzzRowAccumulate(f *testing.F) {
	needVectorLane(f)
	var special []byte
	for _, v := range append(slices.Clone(specials), math.NaN(), -math.SmallestNonzeroFloat64, 0x1p-1040) {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(v))
	}
	random := make([]byte, 8*97)
	rand.New(rand.NewSource(3)).Read(random)
	for n := 0; n <= 70; n += 1 + n/8 {
		for _, rows := range []uint8{0, 1, 3, 17} {
			for _, data := range [][]byte{special, random} {
				f.Add(uint8(n), rows, uint8(n%3), false, data)
				f.Add(uint8(n), rows, uint8(n%3)+15, true, data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, nB, rowsB, padB uint8, skipZero bool, data []byte) {
		// Strides up to n+1540 put as few as two rows in each kernel call
		// (vecRowAcc hands it tileBytes of rows at a time).
		n, nrows := int(nB)%80, int(rowsB)%40
		stride := n + int(padB)%5 + 512*(int(padB)/5%4)
		vals := fuzzFloats(data, n+nrows+nrows*stride)
		start, c, rows := vals[:n], vals[n:n+nrows], vals[n+nrows:]

		want := slices.Clone(start)
		rowAccGo(want, c, rows, stride, skipZero)
		for _, lane := range vecLanes {
			got, intact := guarded(n)
			copy(got, start)
			lane.rowAcc(got, c, rows, stride, skipZero)
			for k := range want {
				if !sameScore(got[k], want[k]) {
					t.Fatalf("%s n=%d rows=%d stride=%d skipZero=%v: out[%d] = %x (%v), Go loop %x (%v)",
						lane.name, n, nrows, stride, skipZero, k, math.Float64bits(got[k]), got[k], math.Float64bits(want[k]), want[k])
				}
			}
			if !intact() {
				t.Fatalf("%s n=%d rows=%d stride=%d: wrote outside out", lane.name, n, nrows, stride)
			}
		}
	})
}

// FuzzConvFeatures holds each lane's conv layer under ConvE's query
// builder to convGo: the same bits in every feature and every pre-BN sum,
// and no write past either (guard words). The fuzzer picks the dim (4, 8,
// 20, 28 or 64: images of 2, 4, 10, 14 and 32 rows, so the top and bottom
// rows meet with and without rows between them), and the bytes of the
// image, the four kernels, their biases and the running batch-norm
// statistics, which loadConv lays out as the model does; one channel's
// variance may be −ε, which makes its inv +Inf. The seeds plant ±0,
// subnormals, ±Inf and NaN, ordinary values, and a layer whose every norm is
// −0.
func FuzzConvFeatures(f *testing.F) {
	needVectorLane(f)
	dims := []int{4, 8, 20, 28, 64}
	var special, normal []byte
	for _, v := range append(slices.Clone(specials), math.NaN(), -math.SmallestNonzeroFloat64, 0x1p-1040) {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(v))
	}
	rng := rand.New(rand.NewSource(5))
	for range 101 {
		normal = binary.LittleEndian.AppendUint64(normal, math.Float64bits(rng.NormFloat64()))
	}
	random := make([]byte, 8*97)
	rng.Read(random)
	for dimB := range uint8(len(dims)) {
		// Every norm −0, which the ReLU must write as +0: a +0 image,
		// negative taps, −0 biases, mean +0 and variance 1.
		pixels := dims[dimB] / 2 * convDW
		var negZero []byte
		for i := range pixels + convChannels*12 {
			v := 0.0
			switch i -= pixels; {
			case i >= 0 && i < convChannels*9:
				v = -1
			case i >= convChannels*9 && i < convChannels*10:
				v = math.Copysign(0, -1)
			case i >= convChannels*11:
				v = 1
			}
			negZero = binary.LittleEndian.AppendUint64(negZero, math.Float64bits(v))
		}
		for _, data := range [][]byte{special, normal, random, negZero} {
			f.Add(dimB, uint8(4), data)
			f.Add(dimB, dimB%4, data)
		}
	}
	f.Fuzz(func(t *testing.T, dimB, infB uint8, data []byte) {
		dim := dims[int(dimB)%len(dims)]
		vals := fuzzFloats(data, dim/2*convDW+convChannels*(9+3))
		img, vals := vals[:dim/2*convDW], vals[dim/2*convDW:]
		m := &ConvE{
			kern:       &table{dim: 9, w: vals[:convChannels*9]},
			kernB:      &table{dim: convChannels, w: vals[convChannels*9:][:convChannels]},
			bnConvMean: vals[convChannels*10:][:convChannels],
			bnConvVar:  vals[convChannels*11:][:convChannels],
		}
		if c := int(infB); c < convChannels {
			m.bnConvVar[c] = -bnEps
		}
		var w convWeights
		m.loadConv(&w)
		n := convChannels * len(img)
		wantPre, wantFeat := make([]float64, n), make([]float64, n)
		convGo(&w, img, wantPre, wantFeat)
		for _, lane := range vecLanes {
			for _, withPre := range []bool{true, false} {
				pre, preIntact := guarded(n)
				feat, featIntact := guarded(n)
				if withPre {
					lane.conv(&w, img, pre, feat)
				} else {
					lane.conv(&w, img, nil, feat)
				}
				for i := range n {
					if withPre && !sameScore(pre[i], wantPre[i]) {
						t.Fatalf("%s dim=%d: pre-BN sum %d = %x (%v), Go loop %x (%v)",
							lane.name, dim, i, math.Float64bits(pre[i]), pre[i], math.Float64bits(wantPre[i]), wantPre[i])
					}
					if !sameScore(feat[i], wantFeat[i]) {
						t.Fatalf("%s dim=%d pre=%v: feature %d = %x (%v), Go loop %x (%v)",
							lane.name, dim, withPre, i, math.Float64bits(feat[i]), feat[i], math.Float64bits(wantFeat[i]), wantFeat[i])
					}
				}
				if !featIntact() || !preIntact() {
					t.Fatalf("%s dim=%d pre=%v: wrote outside feat or convPre", lane.name, dim, withPre)
				}
			}
		}
	})
}
