package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"kgeval/internal/faults"
)

// On-disk layout (little-endian, 8-byte-aligned sections):
//
//	[ 0: 8] magic "KGESTOR\x01"
//	[ 8:12] u32 format version (fileVersion)
//	[12:16] u32 precision
//	[16:24] u64 rows
//	[24:32] u64 dim
//	[32:40] u64 quantization block dim (0 unless int8)
//	[40:48] u64 value-section bytes
//	[48:56] u64 quant-section bytes (0 unless int8)
//	[56:64] u64 reserved (0)
//	[64:  ] values  (rows·dim × {float64|float32|int8}), padded to 8 bytes
//	[ ... ] scales  (rows·nblocks × float32)            — int8 only
//	[ ... ] zeros   (rows·nblocks × float32)            — int8 only
//
// The header is a fixed 64 bytes so the float64 value section starts
// 8-byte-aligned, letting Open alias an mmap'd page directly as typed
// slices with zero copies.

const (
	fileMagic   = "KGESTOR\x01"
	fileVersion = 1
	headerSize  = 64
)

// hostLittleEndian reports whether typed-slice aliasing of the on-disk
// little-endian payload is valid on this machine.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func pad8(n int) int { return (n + 7) &^ 7 }

// elemBytes is the stored size of one value at each precision.
var elemBytes = [numPrecisions]int{Float64: 8, Float32: 4, Int8: 1}

// sectionSizes returns the value and quant section byte sizes (pre-padding).
func sectionSizes(p Precision, rows, dim, nblocks int) (valBytes, quantBytes int) {
	valBytes = rows * dim * elemBytes[p]
	if p == Int8 {
		quantBytes = rows * nblocks * 4 * 2
	}
	return valBytes, quantBytes
}

// WriteTo serializes the store in the versioned columnar format.
// It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	if !hostLittleEndian {
		return 0, fmt.Errorf("store: serialization requires a little-endian host")
	}
	valBytes, quantBytes := sectionSizes(s.prec, s.rows, s.dim, s.nblocks())
	var hdr [headerSize]byte
	copy(hdr[:8], fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], fileVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(s.prec))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(s.rows))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(s.dim))
	var bd uint64
	if s.prec == Int8 {
		bd = BlockDim
	}
	binary.LittleEndian.PutUint64(hdr[32:40], bd)
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(valBytes))
	binary.LittleEndian.PutUint64(hdr[48:56], uint64(quantBytes))

	var n int64
	write := func(b []byte) error {
		if b == nil {
			return nil
		}
		m, err := w.Write(b)
		n += int64(m)
		return err
	}
	if err := write(hdr[:]); err != nil {
		return n, err
	}
	var vals []byte
	switch s.prec {
	case Float64:
		vals = f64Bytes(s.f64)
	case Float32:
		vals = f32Bytes(s.f32)
	case Int8:
		vals = i8Bytes(s.i8)
	}
	if err := write(vals); err != nil {
		return n, err
	}
	if p := pad8(valBytes) - valBytes; p > 0 {
		if err := write(make([]byte, p)); err != nil {
			return n, err
		}
	}
	if s.prec == Int8 {
		if err := write(f32Bytes(s.scale)); err != nil {
			return n, err
		}
		if err := write(f32Bytes(s.zero)); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Read loads a serialized store into the heap. For a shared zero-copy view
// of a file use Open instead.
func Read(r io.Reader) (*Store, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return fromBytes(raw, nil)
}

// Open memory-maps path read-only and returns a store viewing the mapping:
// no payload copies, O(1) in the table size, and concurrent Opens of the
// same file (including from other processes) share one physical copy
// through the page cache. Close releases the mapping. On platforms without
// mmap support the file is read into the heap instead.
func Open(path string) (*Store, error) {
	// Chaos hook: simulate a corrupt or unreadable store file.
	if err := faults.Hit(faults.SiteStoreOpen); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	return openMapped(path)
}

// Close releases the mmap backing, if any. The store must not be used
// afterwards. Heap-backed stores return nil.
func (s *Store) Close() error {
	if s.mapped == nil {
		return nil
	}
	b := s.mapped
	s.mapped = nil
	s.f64, s.f32, s.i8, s.scale, s.zero = nil, nil, nil, nil, nil
	return unmap(b)
}

// fromBytes parses a serialized store, aliasing raw's payload sections.
// mapped, when non-nil, is the mmap region raw views (retained for Close).
func fromBytes(raw, mapped []byte) (*Store, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("store: loading requires a little-endian host")
	}
	if len(raw) < headerSize {
		return nil, fmt.Errorf("store: truncated header (%d bytes)", len(raw))
	}
	if string(raw[:8]) != fileMagic {
		return nil, fmt.Errorf("store: bad magic %q", raw[:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != fileVersion {
		return nil, fmt.Errorf("store: unsupported format version %d (this build reads version %d)", v, fileVersion)
	}
	prec := Precision(binary.LittleEndian.Uint32(raw[12:16]))
	if prec >= numPrecisions {
		return nil, fmt.Errorf("store: unknown precision %d", prec)
	}
	rows := binary.LittleEndian.Uint64(raw[16:24])
	dim := binary.LittleEndian.Uint64(raw[24:32])
	bd := binary.LittleEndian.Uint64(raw[32:40])
	if dim == 0 || rows > math.MaxInt32 || dim > math.MaxInt32 {
		return nil, fmt.Errorf("store: implausible shape %d×%d", rows, dim)
	}
	if prec == Int8 && bd != BlockDim {
		return nil, fmt.Errorf("store: quantization block dim %d, this build uses %d", bd, BlockDim)
	}
	s := &Store{rows: int(rows), dim: int(dim), prec: prec, mapped: mapped}
	// The shape comes from the file, so its section sizes are bounded
	// against the bytes actually present in uint64, by division, before
	// anything multiplies them in int: rows·dim is below 2⁶², but times the
	// element size it can wrap, to a negative or a small positive int.
	avail := uint64(len(raw) - headerSize)
	truncated := func() error {
		return fmt.Errorf("store: truncated payload: %d bytes cannot hold a %d×%d %v table", len(raw), rows, dim, prec)
	}
	if rows*dim > avail/uint64(elemBytes[prec]) {
		return nil, truncated()
	}
	valBytes, quantBytes := sectionSizes(prec, s.rows, s.dim, s.nblocks())
	// rows·dim ≤ avail now, so neither section (at most 8 bytes per value)
	// wraps, nor does their sum.
	if uint64(pad8(valBytes))+uint64(quantBytes) > avail {
		return nil, truncated()
	}
	if dv, dq := binary.LittleEndian.Uint64(raw[40:48]), binary.LittleEndian.Uint64(raw[48:56]); dv != uint64(valBytes) || dq != uint64(quantBytes) {
		return nil, fmt.Errorf("store: header declares %d value and %d quantization bytes, a %d×%d %v table has %d and %d",
			dv, dq, rows, dim, prec, valBytes, quantBytes)
	}
	vals := raw[headerSize : headerSize+valBytes]
	n := s.rows * s.dim
	switch prec {
	case Float64:
		s.f64 = aliasF64(vals, n)
	case Float32:
		s.f32 = aliasF32(vals, n)
	case Int8:
		s.i8 = aliasI8(vals, n)
		q := raw[headerSize+pad8(valBytes):]
		nq := s.rows * s.nblocks()
		s.scale = aliasF32(q[:nq*4], nq)
		s.zero = aliasF32(q[nq*4:nq*8], nq)
	}
	return s, nil
}

// The alias helpers reinterpret byte sections as typed slices. Sections
// start 8-byte-aligned (fixed header + pad8), so the casts are safe.

func aliasF64(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

func aliasF32(b []byte, n int) []float32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

func aliasI8(b []byte, n int) []int8 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), n)
}

func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func f32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func i8Bytes(v []int8) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v))
}
