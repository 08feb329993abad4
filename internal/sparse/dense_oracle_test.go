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
				if err := matchesDense(GramT(a), denseMul(dt, d), false); err != nil {
					t.Fatalf("trial %d binary=%v: %v", trial, binary, err)
				}
			}
		}
	})
}

// sameBits checks got is want exactly: shape, RowPtr, ColIdx, and every
// value by its bit pattern, so a -0 for a +0 or a reordered sum shows.
func sameBits(got, want *CSR) error {
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
		if math.Float64bits(v) != math.Float64bits(want.Val[k]) {
			return fmt.Errorf("value %d = %v, want %v", k, v, want.Val[k])
		}
	}
	return nil
}

// TestMulTMatchesOracleTransposed holds the one product kernel to the kernel
// it replaced: MulT(a, b) is oracleMul(a, b) transposed, bit for bit, on
// binary and valued operands with empty rows, empty columns, an all-zero a,
// and 1-row and 1-column shapes, whatever the worker count.
func TestMulTMatchesOracleTransposed(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		check := func(what string, a, b *CSR) {
			t.Helper()
			if err := sameBits(MulT(a, b), oracleMul(a, b).Transpose()); err != nil {
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
					check(fmt.Sprintf("trial %d (a binary=%v, b binary=%v)", trial, aBin, bBin), a, b)
					check(fmt.Sprintf("trial %d, all-zero a", trial), NewCSR(rows, inner, nil), b)
				}
			}
		}
		// More rows than chunks, so chunks hold several rows and some columns
		// get nothing from whole chunks.
		a := NewCSR(3000, 90, randomEntries(rng, 2000, 90, 30000))
		b := NewCSR(90, 70, randomEntries(rng, 90, 60, 2500))
		check("large", a, b)
	})
}

// lwdOperands returns the L-WD pipeline's two large operands on a synth
// preset: the incidence matrix B and W = rownorm(BᵀB).
func lwdOperands(t *testing.T, cfg synth.Config) (b, w *CSR) {
	t.Helper()
	ds, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	entries := make([]Entry, 0, 2*len(g.Train))
	for _, tr := range g.Train {
		entries = append(entries, Entry{Row: tr.H, Col: tr.R}, Entry{Row: tr.T, Col: int32(g.NumRelations) + tr.R})
	}
	b = NewBinaryCSR(g.NumEntities, 2*g.NumRelations, entries)
	return b, RowNormalize(oracleMul(b.Transpose(), b))
}

// TestMulLargeIndependentOfProcs multiplies matrices big enough for every
// worker to get several blocks — a random pair, and B·W of the L-WD pipeline
// on every synth preset — and requires, at every setting, the bits of the
// serial result and of the row-major oracle transposed.
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
		want := MulT(c.a, c.b)
		if err := sameBits(want, oracleMul(c.a, c.b).Transpose()); err != nil {
			t.Fatalf("%s: MulT differs from the oracle transposed: %v", c.name, err)
		}
		for _, procs := range []int{2, 8} {
			runtime.GOMAXPROCS(procs)
			if err := sameBits(MulT(c.a, c.b), want); err != nil {
				t.Fatalf("%s: MulT at GOMAXPROCS=%d differs from the serial result: %v", c.name, procs, err)
			}
			if err := sameBits(Mul(c.a, c.b), want.Transpose()); err != nil {
				t.Fatalf("%s: Mul at GOMAXPROCS=%d differs from the serial MulT transposed: %v", c.name, procs, err)
			}
		}
	}
}
