package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randRows(rows, dim int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, rows*dim)
	for i := range data {
		data[i] = rng.NormFloat64() * 0.3
	}
	return data
}

// Row reads one row with its own loop, sharing no code with scatterRow: the
// per-row reference Gather and TileColumns are checked against.
func (s *Store) Row(id int32, dst []float64) {
	d, r := s.dim, int(id)
	dst = dst[:d]
	switch s.prec {
	case Float64:
		copy(dst, s.f64[r*d:(r+1)*d])
	case Float32:
		for k, v := range s.f32[r*d : (r+1)*d] {
			dst[k] = float64(v)
		}
	case Int8:
		row := s.i8[r*d : (r+1)*d]
		nb := s.nblocks()
		for b := 0; b < nb; b++ {
			lo := b * BlockDim
			hi := lo + BlockDim
			if hi > d {
				hi = d
			}
			sc := float64(s.scale[r*nb+b])
			z := float64(s.zero[r*nb+b])
			for k := lo; k < hi; k++ {
				dst[k] = z + sc*float64(int(row[k])+128)
			}
		}
	}
}

// Bytes is the payload footprint: values plus quantization parameters.
func (s *Store) Bytes() int {
	return len(s.f64)*8 + len(s.f32)*4 + len(s.i8) + 4*len(s.scale) + 4*len(s.zero)
}

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
	}{
		{"", Float64}, {"float64", Float64}, {"f64", Float64},
		{"float32", Float32}, {"f32", Float32},
		{"int8", Int8}, {"i8", Int8},
	}
	for _, c := range cases {
		got, err := ParsePrecision(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Fatal("ParsePrecision(bf16) should fail")
	}
	for _, p := range []Precision{Float64, Float32, Int8} {
		back, err := ParsePrecision(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip %v via %q failed: %v, %v", p, p.String(), back, err)
		}
	}
}

func TestFloat64StoreAliasesData(t *testing.T) {
	data := randRows(10, 8, 1)
	s, err := FromRows(data, 10, 8, Float64)
	if err != nil {
		t.Fatal(err)
	}
	data[3*8+2] = 42
	row := make([]float64, 8)
	s.Row(3, row)
	if row[2] != 42 {
		t.Fatal("Float64 store should alias the caller's data (zero copy)")
	}
}

// TestInt8ErrorBound verifies the per-block quantization error bound:
// each reconstructed value is within half a quantization step of the
// original, where the step is (max−min)/255 over its BlockDim block
// (plus float32 rounding of the block parameters).
func TestInt8ErrorBound(t *testing.T) {
	const rows, dim = 64, 50 // dim not a multiple of BlockDim: exercises the tail block
	data := randRows(rows, dim, 2)
	s, err := FromRows(data, rows, dim, Int8)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, dim)
	for r := 0; r < rows; r++ {
		s.Row(int32(r), got)
		src := data[r*dim : (r+1)*dim]
		for b := 0; b*BlockDim < dim; b++ {
			lo := b * BlockDim
			hi := lo + BlockDim
			if hi > dim {
				hi = dim
			}
			mn, mx := src[lo], src[lo]
			for _, v := range src[lo:hi] {
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
			}
			step := (mx - mn) / 255
			bound := step/2 + 1e-6*(math.Abs(mn)+step*255)
			for k := lo; k < hi; k++ {
				if e := math.Abs(got[k] - src[k]); e > bound {
					t.Fatalf("row %d dim %d: |%g - %g| = %g exceeds block bound %g",
						r, k, got[k], src[k], e, bound)
				}
			}
		}
	}
}

func TestGatherMatchesRows(t *testing.T) {
	const rows, dim = 30, 24
	data := randRows(rows, dim, 3)
	for _, p := range []Precision{Float64, Float32, Int8} {
		s, err := FromRows(data, rows, dim, p)
		if err != nil {
			t.Fatal(err)
		}
		ids := []int32{7, 0, 29, 7, 13}
		block := make([]float64, len(ids)*dim)
		s.Gather(ids, block)
		row := make([]float64, dim)
		for j, id := range ids {
			s.Row(id, row)
			for k := 0; k < dim; k++ {
				if block[j*dim+k] != row[k] {
					t.Fatalf("%v: Gather[%d][%d] = %g, Row = %g", p, j, k, block[j*dim+k], row[k])
				}
			}
		}
	}
}

// TestGatherQuantizedMatchesGather checks that dequantizing the raw blocks
// GatherQuantized returns — value = zero + scale·(q+128) — reproduces
// exactly what Gather writes, including on a tail block (dim % BlockDim != 0)
// and with repeated ids.
func TestGatherQuantizedMatchesGather(t *testing.T) {
	const rows, dim = 30, 21 // tail block of 5 dims
	data := randRows(rows, dim, 9)
	s, err := FromRows(data, rows, dim, Int8)
	if err != nil {
		t.Fatal(err)
	}
	nb := s.NBlocks()
	if want := (dim + BlockDim - 1) / BlockDim; nb != want {
		t.Fatalf("NBlocks = %d, want %d", nb, want)
	}
	ids := []int32{5, 0, 29, 5, 17}
	vals := make([]int8, len(ids)*dim)
	scale := make([]float32, len(ids)*nb)
	zero := make([]float32, len(ids)*nb)
	s.GatherQuantized(ids, vals, scale, zero)

	ref := make([]float64, len(ids)*dim)
	s.Gather(ids, ref)
	for j := range ids {
		for k := 0; k < dim; k++ {
			b := k / BlockDim
			got := float64(zero[j*nb+b]) + float64(scale[j*nb+b])*float64(int(vals[j*dim+k])+128)
			if got != ref[j*dim+k] {
				t.Fatalf("row %d dim %d: dequantized %g, Gather %g", j, k, got, ref[j*dim+k])
			}
		}
	}
}

func TestGatherQuantizedPanicsOnFloatStore(t *testing.T) {
	s, err := FromRows(randRows(4, 8, 10), 4, 8, Float32)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GatherQuantized on a float32 store should panic")
		}
	}()
	s.GatherQuantized([]int32{0}, make([]int8, 8), make([]float32, 1), make([]float32, 1))
}

func TestBytesFootprint(t *testing.T) {
	const rows, dim = 100, 64
	data := randRows(rows, dim, 8)
	f64, _ := FromRows(data, rows, dim, Float64)
	f32, _ := FromRows(data, rows, dim, Float32)
	i8, _ := FromRows(data, rows, dim, Int8)
	if f64.Bytes() != rows*dim*8 || f32.Bytes() != rows*dim*4 {
		t.Fatalf("float footprints: %d, %d", f64.Bytes(), f32.Bytes())
	}
	wantI8 := rows*dim + rows*(dim/BlockDim)*8
	if i8.Bytes() != wantI8 {
		t.Fatalf("int8 footprint %d, want %d", i8.Bytes(), wantI8)
	}
	if ratio := float64(f64.Bytes()) / float64(i8.Bytes()); ratio < 4 {
		t.Fatalf("int8 should be ≥4× smaller than float64, got %.2f×", ratio)
	}
	// CopyBytes is what FromRows allocated: the reduced-precision payloads,
	// and nothing for the Float64 view of the caller's table.
	for p, want := range map[Precision]int{Float64: 0, Float32: f32.Bytes(), Int8: i8.Bytes()} {
		if got := CopyBytes(rows, dim, p); got != int64(want) {
			t.Errorf("CopyBytes(%s) = %d, want %d", p, got, want)
		}
	}
	// An int8 row whose dim is not a whole number of blocks pays for the last one.
	if got, want := CopyBytes(3, 9, Int8), int64(3*9+3*2*8); got != want {
		t.Errorf("CopyBytes(3×9, int8) = %d, want %d", got, want)
	}
}

// Gather's rows and TileColumns' columns hold the per-row reference's
// values (Row), bit for bit — TileColumns on the assembly path (float64,
// whole groups of four) and the Go path (sub-group tails, reduced precision)
// alike — over runs touching the table's last row, scattered pools, and the
// named shapes below: a run, a run to the table's end, a single row, a run
// with a gap, an unordered run, a repeated id and an empty pool. Neither
// writes outside dst[:len(ids)*dim]: the guard words on both sides survive.
func TestTileColumnsMatchesGather(t *testing.T) {
	const rows, guard = 70, 8
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	rng := rand.New(rand.NewSource(21))
	shapes := map[string][]int32{
		"run":       {7, 8, 9, 10},
		"to-end":    {rows - 3, rows - 2, rows - 1},
		"single":    {5},
		"gap":       {7, 8, 10, 11},
		"unordered": {9, 8, 7},
		"repeat":    {3, 3, 4},
		"empty":     {},
	}
	// guarded returns an n-value window of a buffer with guard words on
	// both sides, and a check that they survived.
	guarded := func(n int) ([]float64, func() bool) {
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
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 12, 33, 64} {
		data := randRows(rows, dim, int64(dim))
		data[3*dim] = math.Copysign(0, -1)
		data[4*dim+dim-1] = math.Inf(-1)
		for _, p := range []Precision{Float64, Float32, Int8} {
			s, err := FromRows(data, rows, dim, p)
			if err != nil {
				t.Fatal(err)
			}
			pools := map[string][]int32{}
			for name, ids := range shapes {
				pools[name] = ids
			}
			for _, n := range []int{0, 1, 3, 4, 5, 8, 11, 32, 67} {
				run, scattered := make([]int32, n), make([]int32, n)
				for i := range run {
					run[i] = int32(rows - n + i) // a run touching the table's last row
					scattered[i] = int32(rng.Intn(rows))
				}
				pools[fmt.Sprintf("run%d", n)] = run
				pools[fmt.Sprintf("scattered%d", n)] = scattered
			}
			row := make([]float64, dim)
			for name, ids := range pools {
				n := len(ids)
				rowsBuf, rowsOK := guarded(n * dim)
				s.Gather(ids, rowsBuf)
				colsBuf, colsOK := guarded(n * dim)
				cols := s.TileColumns(ids, colsBuf)
				if len(cols) != n*dim {
					t.Fatalf("%v dim=%d %s: TileColumns returned %d values", p, dim, name, len(cols))
				}
				for j, id := range ids {
					s.Row(id, row)
					for k, w := range row {
						if g := rowsBuf[j*dim+k]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%v dim=%d %s: Gather row %d dim %d = %x, Row %x",
								p, dim, name, j, k, math.Float64bits(g), math.Float64bits(w))
						}
						if g := cols[k*n+j]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%v dim=%d %s: TileColumns column %d dim %d = %x, Row %x",
								p, dim, name, j, k, math.Float64bits(g), math.Float64bits(w))
						}
					}
				}
				if !rowsOK() || !colsOK() {
					t.Fatalf("%v dim=%d %s: a guard word was overwritten (Gather %v, TileColumns %v)",
						p, dim, name, rowsOK(), colsOK())
				}
			}
		}
	}
}

// An id outside the table or a buffer shorter than the tile panics in Go,
// before any row pointer is formed for the assembly.
func TestTileColumnsRejectsBadInput(t *testing.T) {
	const rows, dim = 16, 8
	data := randRows(rows, dim, 3)
	for _, p := range []Precision{Float64, Float32, Int8} {
		s, err := FromRows(data, rows, dim, p)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			ids []int32
			buf int
		}{
			"id == rows":   {[]int32{0, 1, 2, rows}, 4 * dim},
			"id past rows": {[]int32{0, 1 << 20, 2, 3}, 4 * dim},
			"negative id":  {[]int32{-1, 1, 2, 3}, 4 * dim},
			"short buffer": {[]int32{0, 1, 2, 3}, 4*dim - 1},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v/%s: TileColumns did not panic", p, name)
					}
				}()
				buf := make([]float64, c.buf)
				s.TileColumns(c.ids, buf[:c.buf:c.buf])
			}()
		}
	}
}
