package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func denseEqual(a, b [][]float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	entries := make([]Entry, nnz)
	for i := range entries {
		entries[i] = Entry{
			Row: int32(rng.Intn(rows)),
			Col: int32(rng.Intn(cols)),
			Val: rng.NormFloat64(),
		}
	}
	return NewCSR(rows, cols, entries)
}

func TestNewCSRBasics(t *testing.T) {
	m := NewCSR(3, 4, []Entry{
		{0, 1, 2}, {0, 3, 1}, {2, 0, -1}, {0, 1, 3}, // duplicate (0,1) sums to 5
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	want := [][]float64{
		{0, 5, 0, 1},
		{0, 0, 0, 0},
		{-1, 0, 0, 0},
	}
	if !denseEqual(m.Dense(), want, 0) {
		t.Fatalf("Dense = %v, want %v", m.Dense(), want)
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Fatalf("At(1,2) = %v, want 0", got)
	}
}

func TestNewCSROutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on out-of-bounds entry")
		}
	}()
	NewCSR(2, 2, []Entry{{3, 0, 1}})
}

func TestNewBinaryCSR(t *testing.T) {
	m := NewBinaryCSR(2, 3, []Entry{{0, 2, 0}, {0, 2, 0}, {1, 0, 0}})
	if !m.Binary() {
		t.Fatal("Binary() = false, want true")
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (duplicates collapse)", m.NNZ())
	}
	want := [][]float64{{0, 0, 1}, {1, 0, 0}}
	if !denseEqual(m.Dense(), want, 0) {
		t.Fatalf("Dense = %v, want %v", m.Dense(), want)
	}
	if got := m.At(0, 2); got != 1 {
		t.Fatalf("At(0,2) = %v, want 1", got)
	}
}

func TestRowAccess(t *testing.T) {
	m := NewCSR(2, 4, []Entry{{0, 1, 2}, {0, 3, 4}})
	cols, vals := m.Row(0)
	if !reflect.DeepEqual(cols, []int32{1, 3}) || !reflect.DeepEqual(vals, []float64{2, 4}) {
		t.Fatalf("Row(0) = %v, %v", cols, vals)
	}
	cols, vals = m.Row(1)
	if len(cols) != 0 || len(vals) != 0 {
		t.Fatalf("Row(1) = %v, %v, want empty", cols, vals)
	}
}

func TestTransposeSmall(t *testing.T) {
	m := NewCSR(2, 3, []Entry{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	tr := m.Transpose()
	want := [][]float64{{1, 0}, {0, 3}, {2, 0}}
	if !denseEqual(tr.Dense(), want, 0) {
		t.Fatalf("Transpose = %v, want %v", tr.Dense(), want)
	}
}

// Property: (Aᵀ)ᵀ == A for random matrices (values and pattern).
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), rng.Intn(40))
		return denseEqual(m.Transpose().Transpose().Dense(), m.Dense(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func naiveMul(a, b [][]float64) [][]float64 {
	rows, inner, cols := len(a), len(b), len(b[0])
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
		for k := 0; k < inner; k++ {
			for j := 0; j < cols; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func TestMulSmall(t *testing.T) {
	a := NewCSR(2, 3, []Entry{{0, 0, 1}, {0, 1, 2}, {1, 2, 3}})
	b := NewCSR(3, 2, []Entry{{0, 0, 4}, {1, 1, 5}, {2, 0, 6}})
	got := Mul(a, b).Dense()
	want := naiveMul(a.Dense(), b.Dense())
	if !denseEqual(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on dimension mismatch")
		}
	}()
	Mul(NewCSR(2, 3, nil), NewCSR(2, 3, nil))
}

// Property: sparse Mul matches the dense reference on random inputs,
// including binary×float combinations.
func TestMulMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, inner, cols := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		var a *CSR
		if rng.Intn(2) == 0 {
			entries := make([]Entry, rng.Intn(20))
			for i := range entries {
				entries[i] = Entry{Row: int32(rng.Intn(rows)), Col: int32(rng.Intn(inner))}
			}
			a = NewBinaryCSR(rows, inner, entries)
		} else {
			a = randomCSR(rng, rows, inner, rng.Intn(20))
		}
		b := randomCSR(rng, inner, cols, rng.Intn(20))
		return denseEqual(Mul(a, b).Dense(), naiveMul(a.Dense(), b.Dense()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGramT checks the Gram matrix BᵀB that L-WD's W is made of, formed as
// the product of Bᵀ and B.
func TestGramT(t *testing.T) {
	// B as in a tiny L-WD: 3 entities × 2 columns.
	b := NewBinaryCSR(3, 2, []Entry{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {2, 1, 0}})
	w := Mul(b.Transpose(), b).Dense()
	// Column 0 has members {0,1}; column 1 has {1,2}; overlap {1}.
	want := [][]float64{{2, 1}, {1, 2}}
	if !denseEqual(w, want, 0) {
		t.Fatalf("BᵀB = %v, want %v", w, want)
	}
}

func TestRowNormalize(t *testing.T) {
	m := NewCSR(3, 3, []Entry{{0, 0, 2}, {0, 1, 2}, {1, 2, 5}})
	n := RowNormalize(m)
	want := [][]float64{{0.5, 0.5, 0}, {0, 0, 1}, {0, 0, 0}}
	if !denseEqual(n.Dense(), want, 1e-12) {
		t.Fatalf("RowNormalize = %v, want %v", n.Dense(), want)
	}
	// Original untouched.
	if m.At(0, 0) != 2 {
		t.Fatal("RowNormalize mutated its input")
	}
}

// Property: after RowNormalize every nonzero row sums to 1.
func TestRowNormalizeSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), rng.Intn(40))
		// Make values positive so rows can't cancel to zero.
		for i := range m.Val {
			m.Val[i] = math.Abs(m.Val[i]) + 0.01
		}
		n := RowNormalize(m)
		for r := 0; r < n.NumRows; r++ {
			_, vals := n.Row(r)
			s := 0.0
			for _, v := range vals {
				s += v
			}
			if len(vals) > 0 && math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The L-WD pipeline on the Figure 2 shape: B → W = norm(BᵀB) → X = BW must
// produce scores in [0, 1] with row sums equal to the number of incident
// columns (each W row sums to 1).
func TestLWDPipelineShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := make([]Entry, 60)
	for i := range entries {
		entries[i] = Entry{Row: int32(rng.Intn(20)), Col: int32(rng.Intn(6))}
	}
	b := NewBinaryCSR(20, 6, entries)
	w := RowNormalize(Mul(b.Transpose(), b))
	x := Mul(b, w)
	for r := 0; r < x.NumRows; r++ {
		bCols, _ := b.Row(r)
		_, vals := x.Row(r)
		s := 0.0
		for _, v := range vals {
			if v < -1e-12 {
				t.Fatalf("negative score at row %d: %v", r, v)
			}
			s += v
		}
		if math.Abs(s-float64(len(bCols))) > 1e-9 {
			t.Fatalf("row %d: score sum %v, want %d", r, s, len(bCols))
		}
	}
}
