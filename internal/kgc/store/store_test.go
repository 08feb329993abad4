package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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

// TestRoundTripAllPrecisions serializes and reloads each precision variant
// and checks the reconstructed rows are identical to the original store's.
func TestRoundTripAllPrecisions(t *testing.T) {
	const rows, dim = 40, 33 // odd dim: exercises section padding
	data := randRows(rows, dim, 4)
	for _, p := range []Precision{Float64, Float32, Int8} {
		orig, err := FromRows(data, rows, dim, p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if n, err := orig.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
			t.Fatalf("%v: WriteTo = %d, %v; buffer has %d", p, n, err, buf.Len())
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: Read: %v", p, err)
		}
		if back.Rows() != rows || back.Dim() != dim || back.Precision() != p {
			t.Fatalf("%v: reloaded shape %d×%d precision %v", p, back.Rows(), back.Dim(), back.Precision())
		}
		a, b := make([]float64, dim), make([]float64, dim)
		for r := 0; r < rows; r++ {
			orig.Row(int32(r), a)
			back.Row(int32(r), b)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("%v: row %d dim %d: %g != %g after round-trip", p, r, k, a[k], b[k])
				}
			}
		}
	}
}

func TestRejectUnknownVersion(t *testing.T) {
	s, err := FromRows(randRows(4, 8, 5), 4, 8, Float32)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[8:12], 99)
	if _, err := Read(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want unsupported-version error naming version 99, got %v", err)
	}

	raw[0] = 'X'
	if _, err := Read(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
}

func TestRejectTruncated(t *testing.T) {
	s, _ := FromRows(randRows(4, 8, 6), 4, 8, Int8)
	var buf bytes.Buffer
	s.WriteTo(&buf)
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-5])); err == nil {
		t.Fatal("truncated payload should be rejected")
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Fatal("truncated header should be rejected")
	}
}

// TestMmapSharedReaders writes a store to disk, opens it twice (two
// independent mmap readers over one file), and checks both see identical
// rows while each can be closed independently.
func TestMmapSharedReaders(t *testing.T) {
	const rows, dim = 50, 32
	data := randRows(rows, dim, 7)
	for _, p := range []Precision{Float64, Float32, Int8} {
		orig, err := FromRows(data, rows, dim, p)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ent."+p.String()+".kgs")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := orig.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		r1, err := Open(path)
		if err != nil {
			t.Fatalf("%v: first Open: %v", p, err)
		}
		r2, err := Open(path)
		if err != nil {
			t.Fatalf("%v: second Open: %v", p, err)
		}
		want, a, b := make([]float64, dim), make([]float64, dim), make([]float64, dim)
		for r := 0; r < rows; r++ {
			orig.Row(int32(r), want)
			r1.Row(int32(r), a)
			r2.Row(int32(r), b)
			for k := range want {
				if a[k] != want[k] || b[k] != want[k] {
					t.Fatalf("%v: row %d dim %d: readers %g/%g, want %g", p, r, k, a[k], b[k], want[k])
				}
			}
		}
		// Closing one reader must not disturb the other.
		if err := r1.Close(); err != nil {
			t.Fatal(err)
		}
		r2.Row(3, b)
		orig.Row(3, want)
		if b[0] != want[0] {
			t.Fatalf("%v: second reader corrupted after first Close", p)
		}
		if err := r2.Close(); err != nil {
			t.Fatal(err)
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
}

// header builds a bare 64-byte store header; the payload is whatever the
// caller appends.
func header(p Precision, rows, dim, valBytes, quantBytes uint64) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], fileVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(p))
	binary.LittleEndian.PutUint64(hdr[16:24], rows)
	binary.LittleEndian.PutUint64(hdr[24:32], dim)
	if p == Int8 {
		binary.LittleEndian.PutUint64(hdr[32:40], BlockDim)
	}
	binary.LittleEndian.PutUint64(hdr[40:48], valBytes)
	binary.LittleEndian.PutUint64(hdr[48:56], quantBytes)
	return hdr
}

// A header is input from outside the program: shapes whose section sizes
// overflow int — to a negative value, or all the way round to a small
// positive one — must be reported as a truncated payload, not slip past the
// length guard and panic in a slice expression. Section sizes the header
// declares must agree with its shape.
func TestRejectImplausibleSections(t *testing.T) {
	const maxDim = math.MaxInt32
	// rows·dim·8 = 2⁶⁴ + 64: as an int, a value section of 64 bytes. Only
	// Float64's element size can carry a shape within the MaxInt32 bounds
	// past 2⁶⁴.
	wrapRows, wrapDim := uint64(20*107367629), uint64(2*536903681)
	if wrapped := wrapRows * wrapDim * 8; wrapped != 64 {
		t.Fatalf("wrap shape gives %d value bytes mod 2⁶⁴, want 64", wrapped)
	}
	type tc struct {
		name      string
		p         Precision
		rows, dim uint64
		val, q    uint64 // declared section sizes
		payload   int
		want      string
	}
	var cases []tc
	for _, p := range []Precision{Float64, Float32, Int8} {
		cases = append(cases,
			tc{"max shape", p, maxDim, maxDim, 0, 0, 64, "truncated payload"},
			tc{"max rows", p, maxDim, 8, 0, 0, 64, "truncated payload"},
		)
	}
	cases = append(cases,
		tc{"wraps to 64", Float64, wrapRows, wrapDim, 64, 0, 64, "truncated payload"},
		// 2×8 tables with the right payload length, wrong declared sizes.
		tc{"declared values short", Float64, 2, 8, 64, 0, 128, "header declares"},
		tc{"declared values short", Float32, 2, 8, 32, 0, 64, "header declares"},
		tc{"declared quant missing", Int8, 2, 8, 16, 0, 32, "header declares"},
		tc{"declared quant on float", Float32, 2, 8, 64, 16, 64, "header declares"},
	)
	for _, c := range cases {
		raw := append(header(c.p, c.rows, c.dim, c.val, c.q), make([]byte, c.payload)...)
		s, err := Read(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v/%s: Read = %v, %v; want an error containing %q", c.p, c.name, s, err, c.want)
		}
	}
}

// FuzzFromBytes: no input, however its header lies, may panic the parser,
// and anything it accepts must be a store whose every row is readable.
func FuzzFromBytes(f *testing.F) {
	for _, p := range []Precision{Float64, Float32, Int8} {
		s, err := FromRows(randRows(5, 12, 9), 5, 12, p)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := fromBytes(raw, nil)
		if err != nil {
			return
		}
		row := make([]float64, s.Dim())
		for id := 0; id < s.Rows(); id++ {
			s.Row(int32(id), row)
		}
	})
}

// Tile hands out the table itself for a consecutive run on a Float64 store
// and fills the caller's buffer otherwise; either way its rows equal
// Gather's.
func TestTileAliasesConsecutiveRuns(t *testing.T) {
	const rows, dim = 40, 12
	data := randRows(rows, dim, 10)
	pools := map[string][]int32{
		"run":       {7, 8, 9, 10},
		"to-end":    {37, 38, 39},
		"single":    {5},
		"gap":       {7, 8, 10, 11},
		"unordered": {9, 8, 7},
		"repeat":    {3, 3, 4},
		"empty":     {},
	}
	inPlace := map[string]bool{"run": true, "to-end": true, "single": true}
	for _, p := range []Precision{Float64, Float32, Int8} {
		s, err := FromRows(data, rows, dim, p)
		if err != nil {
			t.Fatal(err)
		}
		for name, ids := range pools {
			buf := make([]float64, len(ids)*dim)
			got := s.Tile(ids, buf)
			want := make([]float64, len(ids)*dim)
			s.Gather(ids, want)
			if len(got) != len(want) {
				t.Fatalf("%v/%s: Tile returned %d values, want %d", p, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v/%s: value %d = %g, Gather %g", p, name, i, got[i], want[i])
				}
			}
			if len(ids) == 0 {
				continue
			}
			aliased := &got[0] == &data[int(ids[0])*dim]
			if want := p == Float64 && inPlace[name]; aliased != want {
				t.Errorf("%v/%s: Tile aliases the table = %v, want %v", p, name, aliased, want)
			}
			if !aliased && &got[0] != &buf[0] {
				t.Errorf("%v/%s: Tile returned neither the table nor the caller's buffer", p, name)
			}
		}
	}
}

// TileColumns holds Gather's values, bit for bit, at the transposed
// positions — on the assembly path (float64, whole groups of four) and the
// Go path (sub-group tails, reduced precision) alike — and writes nothing
// outside buf[:len(ids)*dim]: the guard words on both sides survive.
func TestTileColumnsMatchesGather(t *testing.T) {
	const rows, guard = 70, 8
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 12, 33, 64} {
		data := randRows(rows, dim, int64(dim))
		data[3*dim] = math.Copysign(0, -1)
		data[4*dim+dim-1] = math.Inf(-1)
		for _, p := range []Precision{Float64, Float32, Int8} {
			s, err := FromRows(data, rows, dim, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1, 3, 4, 5, 8, 11, 32, 67} {
				for _, scattered := range []bool{false, true} {
					ids := make([]int32, n)
					for i := range ids {
						ids[i] = int32(rows - n + i) // a run touching the table's last row
						if scattered {
							ids[i] = int32(rng.Intn(rows))
						}
					}
					want := make([]float64, n*dim)
					s.Gather(ids, want)
					mem := make([]float64, guard+n*dim+guard)
					for i := range mem {
						mem[i] = sentinel
					}
					got := s.TileColumns(ids, mem[guard:guard+n*dim:guard+n*dim])
					if len(got) != n*dim {
						t.Fatalf("%v dim=%d n=%d: %d values returned", p, dim, n, len(got))
					}
					for j := 0; j < n; j++ {
						for k := 0; k < dim; k++ {
							if g, w := got[k*n+j], want[j*dim+k]; math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%v dim=%d n=%d scattered=%v: column %d dim %d = %x, Gather %x",
									p, dim, n, scattered, j, k, math.Float64bits(g), math.Float64bits(w))
							}
						}
					}
					for i := 0; i < guard; i++ {
						if math.Float64bits(mem[i]) != math.Float64bits(sentinel) ||
							math.Float64bits(mem[guard+n*dim+i]) != math.Float64bits(sentinel) {
							t.Fatalf("%v dim=%d n=%d: guard word %d overwritten", p, dim, n, i)
						}
					}
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
