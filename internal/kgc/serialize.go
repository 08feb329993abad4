package kgc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"kgeval/internal/kg"
)

// Model persistence: a small versioned binary format so trained models can
// be saved once and re-evaluated many times (the workflow behind the
// paper's ogbl-wikikg2 experiment, which evaluates *pretrained* ComplEx
// embeddings). Only the embedding-table models round-trip; ConvE's BN
// statistics are included via its table list.

const serializeMagic = "KGEVALM1"

// tableSet is implemented by models that expose their parameter tables for
// serialization.
type tableSet interface {
	tables() []*table
}

func (m *TransE) tables() []*table   { return []*table{m.ent, m.rel} }
func (m *DistMult) tables() []*table { return []*table{m.ent, m.rel} }
func (m *ComplEx) tables() []*table  { return []*table{m.ent, m.rel} }
func (m *RESCAL) tables() []*table   { return []*table{m.ent, m.rel} }
func (m *RotatE) tables() []*table   { return []*table{m.ent, m.rel} }
func (m *TuckER) tables() []*table   { return []*table{m.ent, m.rel, m.core} }
func (m *ConvE) tables() []*table {
	return []*table{m.ent, m.bias, m.rel, m.kern, m.kernB, m.fc, m.fcB}
}

// extraFloats lets a model persist non-table state (ConvE's BN statistics).
func modelExtras(m Model) []*[]float64 {
	if c, ok := m.(*ConvE); ok {
		return []*[]float64{&c.bnConvMean, &c.bnConvVar, &c.bnFCMean, &c.bnFCVar}
	}
	return nil
}

// Save writes the model's parameters to w. The receiver's architecture
// (name, dimensions, table shapes) is not stored beyond a consistency
// fingerprint: Load must be called on a model constructed with the same
// constructor arguments.
func Save(w io.Writer, m Model) error {
	ts, ok := m.(tableSet)
	if !ok {
		return fmt.Errorf("kgc: model %s does not support serialization", m.Name())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(serializeMagic); err != nil {
		return err
	}
	writeString(bw, m.Name())
	tables := ts.tables()
	writeU64(bw, uint64(len(tables)))
	for _, t := range tables {
		writeU64(bw, uint64(len(t.w)))
		for _, v := range t.w {
			writeF64(bw, v)
		}
	}
	extras := modelExtras(m)
	writeU64(bw, uint64(len(extras)))
	for _, e := range extras {
		writeU64(bw, uint64(len(*e)))
		for _, v := range *e {
			writeF64(bw, v)
		}
	}
	return bw.Flush()
}

// SnapshotBytes is the length of what Save writes for the model New(name, g,
// dim, ·) builds, computed without building it: the constructors' table
// shapes, dim rounding included, in overflow-checked arithmetic. A caller
// handed constructor arguments it does not trust uses it to refuse a model
// too large to build before anything is allocated, and to refuse a snapshot
// of the wrong length before the model it would load into is.
func SnapshotBytes(name string, g *kg.Graph, dim int) (int64, error) {
	if dim <= 0 {
		return 0, fmt.Errorf("kgc: dim %d is not positive", dim)
	}
	var c checked
	d := int64(dim)
	switch name {
	case "ComplEx", "RotatE": // even: d/2 complex dims
		d = c.add(d, d%2)
	case "ConvE": // a multiple of convDW: a (d/convDW)×convDW grid
		d = c.add(d, (convDW-d%convDW)%convDW)
	}
	e, r := int64(g.NumEntities), int64(g.NumRelations)
	ed, rd := c.mul(e, d), c.mul(r, d)
	var tables, extras []int64
	switch name {
	case "TransE", "DistMult", "ComplEx":
		tables = []int64{ed, rd}
	case "RESCAL":
		tables = []int64{ed, c.mul(rd, d)}
	case "RotatE":
		tables = []int64{ed, r * (d / 2)}
	case "TuckER":
		tables = []int64{ed, rd, c.mul(c.mul(d, d), d)}
	case "ConvE": // convChannels 3×3 kernels; the FC maps convChannels·2d conv features to d
		tables = []int64{ed, e, c.mul(2, rd), convChannels * 9, convChannels, c.mul(c.mul(2*convChannels, d), d), d}
		extras = []int64{convChannels, convChannels, d, d}
	default:
		return 0, fmt.Errorf("kgc: unknown model %q", name)
	}
	// Magic, name, table count, extra count, then a length and values each.
	n := int64(len(serializeMagic) + 8 + len(name) + 8 + 8)
	for _, k := range append(tables, extras...) {
		n = c.add(n, c.add(8, c.mul(8, k)))
	}
	if c.overflow {
		return 0, fmt.Errorf("kgc: a %s snapshot at dim %d is larger than an int64 can count", name, dim)
	}
	return n, nil
}

// checked is int64 arithmetic on non-negative values that remembers an
// overflow instead of wrapping.
type checked struct{ overflow bool }

func (c *checked) add(a, b int64) int64 {
	if a > math.MaxInt64-b {
		c.overflow = true
	}
	return a + b
}

func (c *checked) mul(a, b int64) int64 {
	if hi, lo := bits.Mul64(uint64(a), uint64(b)); hi != 0 || lo > math.MaxInt64 {
		c.overflow = true
	}
	return a * b
}

// Load restores parameters saved by Save into m, which must have been
// constructed with the same architecture (model name and table shapes).
//
// Every length field in the input is checked against the receiver before
// anything is read or allocated for it, so a hostile checkpoint costs one
// fixed chunk buffer however large it claims to be.
func Load(r io.Reader, m Model) error {
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
	tables := ts.tables()
	n, err := readU64(br)
	if err != nil {
		return err
	}
	if n != uint64(len(tables)) {
		return fmt.Errorf("kgc: checkpoint has %d tables, model has %d", n, len(tables))
	}
	buf := make([]byte, loadChunk)
	for i, t := range tables {
		ln, err := readU64(br)
		if err != nil {
			return err
		}
		if ln != uint64(len(t.w)) {
			return fmt.Errorf("kgc: table %d has %d params in checkpoint, %d in model", i, ln, len(t.w))
		}
		if err := readF64s(br, t.w, buf); err != nil {
			return err
		}
	}
	extras := modelExtras(m)
	ne, err := readU64(br)
	if err != nil {
		return err
	}
	if ne != uint64(len(extras)) {
		return fmt.Errorf("kgc: checkpoint has %d extras, model has %d", ne, len(extras))
	}
	for i, e := range extras {
		ln, err := readU64(br)
		if err != nil {
			return err
		}
		if ln != uint64(len(*e)) {
			return fmt.Errorf("kgc: extra %d length mismatch", i)
		}
		if err := readF64s(br, *e, buf); err != nil {
			return err
		}
	}
	return nil
}

func writeU64(w io.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:]) //nolint:errcheck // bufio defers errors to Flush
}

func writeF64(w io.Writer, v float64) {
	writeU64(w, math.Float64bits(v))
}

func writeString(w io.Writer, s string) {
	writeU64(w, uint64(len(s)))
	io.WriteString(w, s) //nolint:errcheck // bufio defers errors to Flush
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// loadChunk is how many bytes of weights Load pulls from the reader per
// call: large enough that the per-read overhead vanishes, small enough to
// stay cache-resident while it is converted.
const loadChunk = 64 << 10

// readF64s fills dst with little-endian float64s from r, one read per
// buf-sized chunk. Input that ends early fails as a per-value reader would:
// io.EOF on a value boundary, io.ErrUnexpectedEOF inside a value.
func readF64s(r io.Reader, dst []float64, buf []byte) error {
	for len(dst) > 0 {
		n := min(len(dst), len(buf)/8)
		got, err := io.ReadFull(r, buf[:n*8])
		if err != nil {
			if err == io.ErrUnexpectedEOF && got%8 == 0 {
				err = io.EOF
			}
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		dst = dst[n:]
	}
	return nil
}

func readString(r io.Reader) (string, error) {
	n, err := readU64(r)
	if err != nil {
		return "", err
	}
	// The only string in the format is a model name; nothing is allocated
	// on the strength of a longer claim.
	if n > 64 {
		return "", fmt.Errorf("kgc: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
