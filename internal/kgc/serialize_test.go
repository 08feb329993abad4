package kgc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"kgeval/internal/synth"
)

// SnapshotBytes is the length Save writes, for every model at dims the
// constructors keep and dims they round up (odd: ComplEx, RotatE; not a
// multiple of four: ConvE).
func TestSnapshotBytesIsWhatSaveWrites(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		for _, dim := range []int{1, 3, 7, 8, 20, 30} {
			m, err := New(name, g, dim, 1)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, m); err != nil {
				t.Fatal(err)
			}
			if got, err := SnapshotBytes(name, g, dim); err != nil || got != int64(buf.Len()) {
				t.Errorf("SnapshotBytes(%s, dim %d) = %d, %v; Save wrote %d bytes", name, dim, got, err, buf.Len())
			}
		}
	}
	for _, c := range []struct {
		name string
		dim  int
	}{{"NoSuchModel", 8}, {"DistMult", 0}, {"TransE", -3}, {"ComplEx", math.MaxInt}, {"TuckER", 1 << 22}, {"RESCAL", 1 << 32}} {
		if n, err := SnapshotBytes(c.name, g, c.dim); err == nil {
			t.Errorf("SnapshotBytes(%s, dim %d) = %d, want an error", c.name, c.dim, n)
		}
	}
}

func TestSaveLoadRoundTripAllModels(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := New(name, g, 8, 31)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 1
			Train(m, g, cfg)

			var buf bytes.Buffer
			if err := Save(&buf, m); err != nil {
				t.Fatalf("Save: %v", err)
			}

			// Fresh model with a different seed: parameters differ until Load.
			m2, err := New(name, g, 8, 99)
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Train[0]
			if m.ScoreTriple(tr.H, tr.R, tr.T) == m2.ScoreTriple(tr.H, tr.R, tr.T) {
				t.Fatal("fresh model coincidentally equal — test would be vacuous")
			}
			if err := Load(bytes.NewReader(buf.Bytes()), m2); err != nil {
				t.Fatalf("Load: %v", err)
			}
			for _, tr := range g.Train[:50] {
				a := m.ScoreTriple(tr.H, tr.R, tr.T)
				b := m2.ScoreTriple(tr.H, tr.R, tr.T)
				if a != b {
					t.Fatalf("score mismatch after load: %v vs %v", a, b)
				}
			}
		})
	}
}

func TestLoadRejectsWrongModel(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	other := NewTransE(g, 8, 1)
	if err := Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("loading DistMult checkpoint into TransE must fail")
	}
}

func TestLoadRejectsWrongShape(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	bigger := NewDistMult(g, 16, 1)
	if err := Load(bytes.NewReader(buf.Bytes()), bigger); err == nil {
		t.Fatal("loading dim-8 checkpoint into dim-16 model must fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	if err := Load(bytes.NewReader([]byte("not a checkpoint at all")), m); err == nil {
		t.Fatal("garbage input must fail")
	}
	if err := Load(bytes.NewReader(nil), m); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestSaveLoadTruncated(t *testing.T) {
	g := trainGraph(t)
	m := NewDistMult(g, 8, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if err := Load(bytes.NewReader(raw[:len(raw)/2]), NewDistMult(g, 8, 2)); err == nil {
		t.Fatal("truncated checkpoint must fail")
	}
}

// loadPerValue is the loader Load replaced: one 8-byte read per weight. It
// stays here as the oracle for what bulk reads must not change — the
// weights, bit for bit, and the error on any input.
func loadPerValue(r io.Reader, m Model) error {
	ts, ok := m.(tableSet)
	if !ok {
		return fmt.Errorf("kgc: model %s does not support serialization", m.Name())
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(serializeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("kgc: reading magic: %w", err)
	}
	if string(magic) != serializeMagic {
		return fmt.Errorf("kgc: bad magic %q", magic)
	}
	name, err := readString(br)
	if err != nil {
		return err
	}
	if name != m.Name() {
		return fmt.Errorf("kgc: checkpoint is for %s, model is %s", name, m.Name())
	}
	readVals := func(dst []float64) error {
		for j := range dst {
			v, err := readU64(br)
			if err != nil {
				return err
			}
			dst[j] = math.Float64frombits(v)
		}
		return nil
	}
	tables := ts.tables()
	n, err := readU64(br)
	if err != nil {
		return err
	}
	if int(n) != len(tables) {
		return fmt.Errorf("kgc: checkpoint has %d tables, model has %d", n, len(tables))
	}
	for i, t := range tables {
		ln, err := readU64(br)
		if err != nil {
			return err
		}
		if int(ln) != len(t.w) {
			return fmt.Errorf("kgc: table %d has %d params in checkpoint, %d in model", i, ln, len(t.w))
		}
		if err := readVals(t.w); err != nil {
			return err
		}
	}
	extras := modelExtras(m)
	ne, err := readU64(br)
	if err != nil {
		return err
	}
	if int(ne) != len(extras) {
		return fmt.Errorf("kgc: checkpoint has %d extras, model has %d", ne, len(extras))
	}
	for i, e := range extras {
		ln, err := readU64(br)
		if err != nil {
			return err
		}
		if int(ln) != len(*e) {
			return fmt.Errorf("kgc: extra %d length mismatch", i)
		}
		if err := readVals(*e); err != nil {
			return err
		}
	}
	return nil
}

// params flattens every weight Load restores, tables then extras.
func params(m Model) []float64 {
	var out []float64
	for _, t := range m.(tableSet).tables() {
		out = append(out, t.w...)
	}
	for _, e := range modelExtras(m) {
		out = append(out, *e...)
	}
	return out
}

// TestLoadBulkMatchesPerValue: for all seven models (ConvE's batch-norm
// extras included) the chunked Load restores exactly the bits Save wrote —
// NaN payloads and signed zeros too — and on every truncation of the
// checkpoint fails with the error the per-value loader fails with.
func TestLoadBulkMatchesPerValue(t *testing.T) {
	g := trainGraph(t)
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			// Large enough that the weights span several 64 KiB chunks, small
			// enough that TuckER's d³ core stays a test-sized allocation.
			dim := 128
			switch name {
			case "TuckER":
				dim = 32
			case "RESCAL", "ConvE":
				dim = 64
			}
			src, err := New(name, g, dim, 31)
			if err != nil {
				t.Fatal(err)
			}
			want := params(src)
			if len(want)*8 <= 2*loadChunk {
				t.Fatalf("%d params do not span several chunks", len(want))
			}
			// Values no arithmetic would survive: only a bit copy does.
			tbl := src.(tableSet).tables()[0]
			tbl.w[0] = math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with a payload
			tbl.w[1] = math.Copysign(0, -1)
			tbl.w[len(tbl.w)-1] = math.Inf(-1)
			want = params(src)
			var buf bytes.Buffer
			if err := Save(&buf, src); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()

			dst, _ := New(name, g, dim, 99)
			if err := Load(bytes.NewReader(raw), dst); err != nil {
				t.Fatalf("Load: %v", err)
			}
			got := params(dst)
			if len(got) != len(want) {
				t.Fatalf("loaded %d params, saved %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("param %d: loaded bits %#x, saved %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}

			// Truncations: every length near the boundaries that matter (the
			// header, a table's length field, a chunk edge, mid-value, the
			// extras) plus a stride through the rest.
			cuts := map[int]bool{}
			for c := 0; c < 64 && c < len(raw); c++ {
				cuts[c] = true
			}
			for c := loadChunk - 9; c < loadChunk+80; c += 5 { // every offset within a value, either side of a chunk edge
				cuts[c] = true
			}
			for c := len(raw) - 80; c < len(raw); c += 7 {
				cuts[c] = true
			}
			for c := 0; c < len(raw); c += len(raw)/24 + 1 {
				cuts[c] = true
			}
			// And a checkpoint of another shape fails the same way too.
			other, _ := New(name, g, dim/2, 1)
			wrong, _ := New(name, g, dim/2, 1)
			if gotErr, wantErr := Load(bytes.NewReader(raw), other), loadPerValue(bytes.NewReader(raw), wrong); gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("dim-%d checkpoint into a dim-%d model: Load err = %v, per-value err = %v", dim, dim/2, gotErr, wantErr)
			}
			// One receiver per loader: a failed load leaves weights half
			// written, which the next load overwrites.
			a, _ := New(name, g, dim, 1)
			b, _ := New(name, g, dim, 1)
			for c := range cuts {
				gotErr := Load(bytes.NewReader(raw[:c]), a)
				wantErr := loadPerValue(bytes.NewReader(raw[:c]), b)
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("truncated to %d of %d bytes: Load err = %v, per-value err = %v", c, len(raw), gotErr, wantErr)
				}
			}
		})
	}
}

// FuzzLoad: whatever the bytes, Load returns (never panics), and it never
// allocates in proportion to a length the input claims — one chunk buffer
// and the reader's, whatever the header says.
func FuzzLoad(f *testing.F) {
	g, err := synth.Generate(synth.Config{
		Name: "fuzz-load", NumEntities: 40, NumRelations: 4, NumTypes: 3,
		NumTriples: 300, ValidFrac: 0.1, TestFrac: 0.1, Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	models := map[string]Model{} // Load only overwrites weights: one receiver per name serves every input
	for _, name := range ModelNames() {
		m, err := New(name, g.Graph, 4, 1)
		if err != nil {
			f.Fatal(err)
		}
		models[name] = m
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(name, raw)
		f.Add(name, raw[:len(raw)/2])
		huge := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(huge[len(serializeMagic):], 1<<62) // name length
		f.Add(name, huge)
		huge = bytes.Clone(raw)
		binary.LittleEndian.PutUint64(huge[len(serializeMagic)+8+len(name)+8:], 1<<40) // first table's length
		f.Add(name, huge)
	}
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		m, ok := models[name]
		if !ok {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = Load(bytes.NewReader(data), m)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*loadChunk {
			t.Fatalf("Load allocated %d bytes on a %d-byte input", grew, len(data))
		}
	})
}
