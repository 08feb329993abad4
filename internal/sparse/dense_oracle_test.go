package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kgeval/internal/synth"
)

// NewCSR builds a valued matrix from coordinate entries, duplicate (row, col)
// coordinates summed in input order. Production code only ever gets a valued
// matrix as a product or a normalization; the tests need arbitrary ones.
func NewCSR(rows, cols int, entries []Entry) *CSR {
	m := NewBinaryCSR(rows, cols, entries)
	m.Val = make([]float64, m.NNZ())
	for _, e := range entries {
		lo := m.RowPtr[e.Row]
		i, _ := slices.BinarySearch(m.ColIdx[lo:m.RowPtr[e.Row+1]], e.Col)
		m.Val[lo+i] += e.Val
	}
	return m
}

// Dense expands the matrix into a row-major dense [][]float64.
func (m *CSR) Dense() [][]float64 {
	out := make([][]float64, m.NumRows)
	for r := range out {
		out[r] = make([]float64, m.NumCols)
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			out[r][m.ColIdx[k]] = m.valueAt(k)
		}
	}
	return out
}

// denseRef is a dense matrix that also remembers which cells are stored, so
// a stored zero and an absent cell stay distinguishable.
type denseRef struct {
	val    [][]float64
	stored [][]bool
}

func newDenseRef(rows, cols int) denseRef {
	d := denseRef{val: make([][]float64, rows), stored: make([][]bool, rows)}
	for r := range d.val {
		d.val[r] = make([]float64, cols)
		d.stored[r] = make([]bool, cols)
	}
	return d
}

// denseFromEntries is the reference for NewCSR/NewBinaryCSR: duplicates are
// summed in input order (binary: collapse to 1).
func denseFromEntries(rows, cols int, entries []Entry, binary bool) denseRef {
	d := newDenseRef(rows, cols)
	for _, e := range entries {
		if binary {
			d.val[e.Row][e.Col] = 1
		} else {
			d.val[e.Row][e.Col] += e.Val
		}
		d.stored[e.Row][e.Col] = true
	}
	return d
}

func denseOf(m *CSR) denseRef {
	d := newDenseRef(m.NumRows, m.NumCols)
	for r := 0; r < m.NumRows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.val[r][m.ColIdx[k]] = m.valueAt(k)
			d.stored[r][m.ColIdx[k]] = true
		}
	}
	return d
}

// denseMul is the reference for Mul: cell (i, j) adds a[i][k]·b[k][j] over the
// stored k in ascending order, which is the order Gustavson's row sweep uses.
func denseMul(a, b denseRef) denseRef {
	out := newDenseRef(len(a.val), len(b.val[0]))
	for i := range a.val {
		for k := range b.val {
			if !a.stored[i][k] {
				continue
			}
			for j := range b.val[k] {
				if b.stored[k][j] {
					out.val[i][j] += a.val[i][k] * b.val[k][j]
					out.stored[i][j] = true
				}
			}
		}
	}
	return out
}

// matchesDense checks m is a well-formed CSR holding exactly want: same
// stored cells, every value ==, columns strictly ascending, arrays exact-size.
func matchesDense(m *CSR, want denseRef, binary bool) error {
	if m.NumRows != len(want.val) || len(m.RowPtr) != m.NumRows+1 || m.RowPtr[0] != 0 {
		return fmt.Errorf("bad shape or RowPtr header")
	}
	if m.RowPtr[m.NumRows] != len(m.ColIdx) {
		return fmt.Errorf("RowPtr ends at %d, ColIdx has %d", m.RowPtr[m.NumRows], len(m.ColIdx))
	}
	if binary != (m.Val == nil) || (!binary && len(m.Val) != len(m.ColIdx)) {
		return fmt.Errorf("Val has %d entries for %d columns (binary=%v)", len(m.Val), len(m.ColIdx), binary)
	}
	for r := 0; r < m.NumRows; r++ {
		var wantCols []int32
		for c, s := range want.stored[r] {
			if s {
				wantCols = append(wantCols, int32(c))
			}
		}
		cols, _ := m.Row(r)
		if !slices.Equal(cols, wantCols) {
			return fmt.Errorf("row %d: columns %v, want %v", r, cols, wantCols)
		}
		for i, c := range cols {
			if got := m.valueAt(m.RowPtr[r] + i); got != want.val[r][c] {
				return fmt.Errorf("(%d,%d) = %v, want %v", r, c, got, want.val[r][c])
			}
		}
	}
	return nil
}

// randomEntries draws nnz coordinates over the first liveRows rows (so later
// rows stay empty) from a small column range, which forces duplicates.
func randomEntries(rng *rand.Rand, liveRows, cols, nnz int) []Entry {
	entries := make([]Entry, nnz)
	for i := range entries {
		entries[i] = Entry{Row: int32(rng.Intn(liveRows)), Col: int32(rng.Intn(cols)), Val: rng.NormFloat64()}
	}
	return entries
}

// atProcs runs fn under each GOMAXPROCS setting: serial, the CI machines'
// two, and more workers than most test matrices have rows.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), fn)
	}
}

func TestBuildersMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(6)
		entries := randomEntries(rng, 1+rng.Intn(rows), cols, rng.Intn(60))
		input := slices.Clone(entries)
		for _, binary := range []bool{false, true} {
			build := NewCSR
			if binary {
				build = NewBinaryCSR
			}
			if err := matchesDense(build(rows, cols, entries), denseFromEntries(rows, cols, entries, binary), binary); err != nil {
				t.Fatalf("trial %d binary=%v: %v", trial, binary, err)
			}
			if !slices.Equal(entries, input) {
				t.Fatalf("trial %d: builder modified its input", trial)
			}
		}
	}
}

func TestMulMatchesDenseExactly(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 150; trial++ {
			// rows is often below the worker count; inner rows and a's rows
			// are partly empty.
			rows, inner, cols := 1+rng.Intn(20), 1+rng.Intn(8), 1+rng.Intn(8)
			aEntries := randomEntries(rng, 1+rng.Intn(rows), inner, rng.Intn(80))
			bEntries := randomEntries(rng, 1+rng.Intn(inner), cols, rng.Intn(40))
			for _, aBin := range []bool{false, true} {
				for _, bBin := range []bool{false, true} {
					a, b := NewCSR(rows, inner, aEntries), NewCSR(inner, cols, bEntries)
					if aBin {
						a = NewBinaryCSR(rows, inner, aEntries)
					}
					if bBin {
						b = NewBinaryCSR(inner, cols, bEntries)
					}
					if err := matchesDense(Mul(a, b), denseMul(denseOf(a), denseOf(b)), false); err != nil {
						t.Fatalf("trial %d (a binary=%v, b binary=%v): %v", trial, aBin, bBin, err)
					}
				}
			}
		}
	})
}

// TestGramTMatchesDenseExactly checks the Gram matrix AᵀA, formed as the
// product of Aᵀ and A, against the dense reference.
func TestGramTMatchesDenseExactly(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 100; trial++ {
			rows, cols := 1+rng.Intn(30), 1+rng.Intn(10)
			entries := randomEntries(rng, 1+rng.Intn(rows), cols, rng.Intn(120))
			for _, binary := range []bool{false, true} {
				a := NewCSR(rows, cols, entries)
				if binary {
					a = NewBinaryCSR(rows, cols, entries)
				}
				d := denseOf(a)
				dt := newDenseRef(cols, rows)
				for r := range d.val {
					for c := range d.val[r] {
						dt.val[c][r], dt.stored[c][r] = d.val[r][c], d.stored[r][c]
					}
				}
				if err := matchesDense(Mul(a.Transpose(), a), denseMul(dt, d), false); err != nil {
					t.Fatalf("trial %d binary=%v: %v", trial, binary, err)
				}
			}
		}
	})
}

// sameBits checks got is want exactly: shape, RowPtr, ColIdx, and every
// value by its bit pattern, so a -0 for a +0 or a reordered sum shows. With
// anyNaN a NaN matches any NaN: an operand that holds a NaN may reach the
// result with another payload when a product's factors are commuted.
func sameBits(got, want *CSR, anyNaN bool) error {
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.NumRows, got.NumCols, want.NumRows, want.NumCols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		return fmt.Errorf("pattern differs")
	}
	if len(got.Val) != len(want.Val) {
		return fmt.Errorf("%d values, want %d", len(got.Val), len(want.Val))
	}
	for k, v := range got.Val {
		if anyNaN && math.IsNaN(v) && math.IsNaN(want.Val[k]) {
			continue
		}
		if math.Float64bits(v) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("value %d = %v (%#x), want %v (%#x)", k, v, math.Float64bits(v), want.Val[k], math.Float64bits(want.Val[k]))
		}
	}
	return nil
}

// matchesOracle checks both orientations of the product against oracleMul:
// Mul(a, b) is oracleMul(a, b), and Mul(bᵀ, aᵀ) — the way the score matrix
// is formed column-major — is oracleMul(a, b) transposed.
func matchesOracle(a, b *CSR, anyNaN bool) error {
	want := oracleMul(a, b)
	if err := sameBits(Mul(a, b), want, anyNaN); err != nil {
		return fmt.Errorf("Mul(a, b): %v", err)
	}
	if err := sameBits(Mul(b.Transpose(), a.Transpose()), want.Transpose(), anyNaN); err != nil {
		return fmt.Errorf("Mul(bᵀ, aᵀ): %v", err)
	}
	return nil
}

// edgeValues are the stored values floating point gets wrong first: signed
// zeros, subnormals, the largest finites, infinities and NaNs with payloads
// (the last two). Inf·0 and Inf−Inf make NaN from operands without one.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -3.7, 5e-324, -5e-324,
	2.2250738585072014e-308, 1e-310, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000abc),
}

// withValues returns m's pattern holding vals in turn, stored as they are,
// so a -0 survives (NewCSR sums onto +0).
func withValues(m *CSR, vals []float64) *CSR {
	v := &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: make([]float64, m.NNZ())}
	for k := range v.Val {
		v.Val[k] = vals[k%len(vals)]
	}
	return v
}

// TestMulTMatchesOracleTransposed holds the one product kernel to the kernel
// it replaced, bit for bit, in both orientations (matchesOracle): on binary
// and valued operands with empty rows, empty columns, an all-zero a, and
// 1-row and 1-column shapes; at output widths either side of the touched
// bitmap's 64-column words; on operands with no rows, no columns or no inner
// dimension; on ±0, subnormals and ±Inf by their bits, and on NaN as NaN;
// whatever the worker count.
func TestMulTMatchesOracleTransposed(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		check := func(what string, a, b *CSR, anyNaN bool) {
			t.Helper()
			if err := matchesOracle(a, b, anyNaN); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		for trial := 0; trial < 150; trial++ {
			// Dimensions of 1 are frequent; a and b leave trailing rows (and
			// so columns of the other operand's product) empty.
			rows, inner, cols := 1+rng.Intn(40)*rng.Intn(2), 1+rng.Intn(8)*rng.Intn(2), 1+rng.Intn(8)*rng.Intn(2)
			aEntries := randomEntries(rng, 1+rng.Intn(rows), inner, rng.Intn(120))
			bEntries := randomEntries(rng, 1+rng.Intn(inner), 1+rng.Intn(cols), rng.Intn(40))
			for _, aBin := range []bool{false, true} {
				for _, bBin := range []bool{false, true} {
					a, b := NewCSR(rows, inner, aEntries), NewCSR(inner, cols, bEntries)
					if aBin {
						a = NewBinaryCSR(rows, inner, aEntries)
					}
					if bBin {
						b = NewBinaryCSR(inner, cols, bEntries)
					}
					check(fmt.Sprintf("trial %d (a binary=%v, b binary=%v)", trial, aBin, bBin), a, b, false)
					check(fmt.Sprintf("trial %d, all-zero a", trial), NewCSR(rows, inner, nil), b, false)
				}
			}
		}
		// More rows than a worker's block, so blocks hold several rows.
		a := NewCSR(3000, 90, randomEntries(rng, 2000, 90, 30000))
		b := NewCSR(90, 70, randomEntries(rng, 90, 60, 2500))
		check("large", a, b, false)

		// Widths either side of a bitmap word, in both orientations: a has
		// as many rows as b has columns. The last column is always hit.
		for _, width := range []int{63, 64, 65, 127, 128, 129} {
			aEntries := append(randomEntries(rng, width, 12, 4*width), Entry{Row: int32(width - 1), Col: 11, Val: 1})
			bEntries := append(randomEntries(rng, 12, width, 4*width), Entry{Row: 11, Col: int32(width - 1), Val: 2})
			a, b := NewCSR(width, 12, aEntries), NewCSR(12, width, bEntries)
			check(fmt.Sprintf("width %d", width), a, b, false)
			check(fmt.Sprintf("width %d, binary a", width), NewBinaryCSR(width, 12, aEntries), b, false)
			check(fmt.Sprintf("width %d, binary b", width), a, NewBinaryCSR(12, width, bEntries), false)
		}

		// No rows, no inner dimension, no columns.
		for _, shape := range [][3]int{{0, 5, 7}, {6, 0, 7}, {6, 5, 0}, {0, 0, 0}, {0, 5, 0}} {
			rows, inner, cols := shape[0], shape[1], shape[2]
			var aEntries, bEntries []Entry
			if rows > 0 && inner > 0 {
				aEntries = randomEntries(rng, rows, inner, 20)
			}
			if inner > 0 && cols > 0 {
				bEntries = randomEntries(rng, inner, cols, 20)
			}
			check(fmt.Sprintf("shape %v", shape), NewCSR(rows, inner, aEntries), NewCSR(inner, cols, bEntries), false)
			check(fmt.Sprintf("shape %v, binary", shape), NewBinaryCSR(rows, inner, aEntries), NewBinaryCSR(inner, cols, bEntries), false)
		}

		// Signed zeros, subnormals, the largest finites and infinities by
		// their bits; then NaNs too, as NaN.
		finite := edgeValues[:len(edgeValues)-2]
		for trial := 0; trial < 40; trial++ {
			rows, inner, cols := 1+rng.Intn(70), 1+rng.Intn(6), 1+rng.Intn(70)
			a := NewBinaryCSR(rows, inner, randomEntries(rng, rows, inner, rng.Intn(3*rows)))
			b := NewBinaryCSR(inner, cols, randomEntries(rng, inner, cols, rng.Intn(3*cols)))
			for _, vals := range [][]float64{finite, edgeValues} {
				anyNaN := len(vals) == len(edgeValues)
				perm := func() []float64 {
					p := slices.Clone(vals)
					rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
					return p
				}
				va, vb := withValues(a, perm()), withValues(b, perm())
				what := fmt.Sprintf("edge values trial %d (NaN=%v)", trial, anyNaN)
				check(what, va, vb, anyNaN)
				check(what+", binary a", a, vb, anyNaN)
				check(what+", binary b", va, b, anyNaN)
			}
		}
	})
}

// FuzzMul builds both operands from the fuzz bytes — shapes, patterns, which
// of them is binary, and values drawn from edgeValues or from the byte — and
// holds Mul to oracleMul in both orientations, bit for bit (a NaN as NaN
// when an operand holds one).
func FuzzMul(f *testing.F) {
	f.Add([]byte{5, 3, 65, 0, 0, 0, 2, 1, 1, 3, 4, 64, 29, 2, 2, 5})
	f.Add([]byte{64, 2, 129, 3, 63, 1, 26, 1, 128, 27, 0, 0, 28, 1, 0, 30})
	f.Add([]byte{0, 4, 3, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rows, inner, cols, flags := int(data[0]%80), int(data[1]%24), int(data[2]), data[3]
		var aEntries, bEntries []Entry
		var aVals, bVals []float64
		for p := data[4:]; len(p) >= 3; p = p[3:] {
			x, y, v := int32(p[0]), int32(p[1]), p[2]
			val := float64(v>>1)*0.37 - 20
			if int(v>>1) < len(edgeValues) {
				val = edgeValues[v>>1]
			}
			if v&1 == 0 && rows > 0 && inner > 0 {
				aEntries = append(aEntries, Entry{Row: x % int32(rows), Col: y % int32(inner)})
				aVals = append(aVals, val)
			} else if v&1 == 1 && inner > 0 && cols > 0 {
				bEntries = append(bEntries, Entry{Row: x % int32(inner), Col: y % int32(cols)})
				bVals = append(bVals, val)
			}
		}
		a, b := NewBinaryCSR(rows, inner, aEntries), NewBinaryCSR(inner, cols, bEntries)
		if flags&1 == 0 && len(aVals) > 0 {
			a = withValues(a, aVals)
		}
		if flags&2 == 0 && len(bVals) > 0 {
			b = withValues(b, bVals)
		}
		anyNaN := slices.ContainsFunc(a.Val, math.IsNaN) || slices.ContainsFunc(b.Val, math.IsNaN)
		if err := matchesOracle(a, b, anyNaN); err != nil {
			t.Fatalf("%dx%d · %dx%d (a binary=%v, b binary=%v): %v", rows, inner, inner, cols, a.Binary(), b.Binary(), err)
		}
	})
}

// graphOperands returns the incidence matrix B and the entity-type matrix T
// of a synth preset, the operands of every product recommender.
func graphOperands(tb testing.TB, cfg synth.Config) (b, types *CSR) {
	tb.Helper()
	ds, err := synth.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g := ds.Graph
	entries := make([]Entry, 0, 2*len(g.Train))
	for _, tr := range g.Train {
		entries = append(entries, Entry{Row: tr.H, Col: tr.R}, Entry{Row: tr.T, Col: int32(g.NumRelations) + tr.R})
	}
	var typed []Entry
	for e, ts := range g.EntityTypes {
		for _, ty := range ts {
			typed = append(typed, Entry{Row: int32(e), Col: ty})
		}
	}
	return NewBinaryCSR(g.NumEntities, 2*g.NumRelations, entries), NewBinaryCSR(g.NumEntities, g.NumTypes, typed)
}

// lwdOperands returns the L-WD pipeline's two large operands on a synth
// preset: the incidence matrix B and W = rownorm(BᵀB).
func lwdOperands(tb testing.TB, cfg synth.Config) (b, w *CSR) {
	tb.Helper()
	b, _ = graphOperands(tb, cfg)
	return b, RowNormalize(oracleMul(b.Transpose(), b))
}

// TestMulLargeIndependentOfProcs multiplies matrices big enough for every
// worker to get several blocks — a random pair, and B·W of the L-WD pipeline
// on every synth preset — and requires, at every setting, the bits of the
// row-major oracle, and of the oracle transposed from the score matrix's
// orientation Wᵀ·Bᵀ.
func TestMulLargeIndependentOfProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type operands struct {
		name string
		a, b *CSR
	}
	cases := []operands{{"random",
		NewCSR(3000, 90, randomEntries(rng, 3000, 90, 30000)),
		NewCSR(90, 70, randomEntries(rng, 90, 70, 2500))}}
	presets := synth.AllPresets()
	if testing.Short() {
		presets = []synth.Config{synth.CoDExSSim()}
	}
	for _, cfg := range presets {
		b, w := lwdOperands(t, cfg)
		cases = append(cases, operands{cfg.Name, b, w})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range cases {
		runtime.GOMAXPROCS(1)
		want := oracleMul(c.a, c.b)
		wantT := want.Transpose()
		at, bt := c.a.Transpose(), c.b.Transpose()
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			if err := sameBits(Mul(c.a, c.b), want, false); err != nil {
				t.Fatalf("%s: Mul at GOMAXPROCS=%d differs from the oracle: %v", c.name, procs, err)
			}
			if err := sameBits(Mul(bt, at), wantT, false); err != nil {
				t.Fatalf("%s: Mul of the transposes at GOMAXPROCS=%d differs from the oracle transposed: %v", c.name, procs, err)
			}
		}
	}
}
