package service

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"strings"
	"sync"
)

// A job submission is a few hundred bytes of JobSpec around megabytes of
// base64 model snapshot. Handing the whole body to encoding/json costs two
// byte-at-a-time scanner passes over the snapshot plus a body-sized string
// and a decoded copy per request; what the snapshot actually needs is one
// base64 pass and a hash. readJobSpec therefore walks the body once with a
// minimal JSON tokenizer, diverts the string value of every "snapshot" key
// through a base64 decoder into a pooled buffer and a SHA-256, and leaves a
// short placeholder string in its place. encoding/json (unknown fields
// still disallowed) decodes the remainder — so field matching, duplicate
// keys, type errors and every other rule of the format stay its business —
// and the placeholders are swapped for the decoded bytes and their digest.
//
// The tokenizer copies everything but diverted strings verbatim and replaces
// a diverted string with a well-formed one, so the remainder is valid JSON
// exactly when the body is; it only has to be right about which strings to
// divert when the body is well formed. FuzzSubmitBody holds the whole
// arrangement to plain encoding/json: same accept/reject, same JobSpec.
//
// What a snapshot then costs is its base64 decode and its SHA-256. Where
// internal/cpu finds AVX2, an assembly kernel (submit_body_amd64.s) decodes
// 32-character blocks for as long as every character is in the alphabet.
// The block it stops at — closing quote, escape, line break, padding, a
// byte base64 rejects — goes to the scalar code (escapes, carried
// characters, encoding/base64) one short window at a time. The kernel
// decodes a block to the bytes encoding/base64 would, so every error,
// escape and padding rule stays with the scalar code; FuzzSnapshotDecode
// holds the kernel to encoding/base64.

// snapshotPayload is one diverted snapshot string, decoded.
type snapshotPayload struct {
	buf    *[]byte // pooled; the decoded kgc.Save bytes
	digest string  // hex SHA-256 of *buf
}

// snapshotBufs recycles decoded-snapshot buffers: a digest the registry
// already holds needs the bytes only long enough to hash them.
var snapshotBufs = sync.Pool{New: func() any { return new([]byte) }}

// placeholderNonce makes the placeholder strings unguessable, so snapshot
// bytes a client spells some other way (a JSON array of numbers) can never
// be mistaken for one.
var placeholderNonce = func() (n [16]byte) {
	if _, err := rand.Read(n[:]); err != nil {
		panic("service: reading random bytes: " + err.Error())
	}
	return n
}()

const placeholderLen = len(placeholderNonce) + 4

// tokenizer modes.
const (
	modeOutside  = iota // between tokens
	modeString          // in a string that stays in the remainder
	modeKey             // in an object key (stays, and is inspected)
	modeSnapshot        // in a diverted snapshot string
)

// base64Blocks, when not nil, is the vector lane: it decodes the longest run
// of whole 32-character blocks of alphabet at the start of src into dst and
// returns the characters consumed. Set once at start-up, where the CPU has
// the instructions.
var base64Blocks func(dst, src []byte) int

// scalarWindow bounds how much input the scalar code takes between two calls
// of the vector lane: one block, less the characters carried, so that a
// window free of escapes ends on a quantum boundary.
const scalarWindow = 32

// maxKeyLiteral bounds how much of a key literal is kept for inspection:
// `"snapshot"` with every character \u-escaped is 50 bytes.
const maxKeyLiteral = 64

// bodyDecoder is the pooled working set of one readJobSpec call.
type bodyDecoder struct {
	in       [64 << 10]byte
	rest     bytes.Buffer // the body minus snapshot strings
	key      []byte       // the key literal being read, quotes included
	payloads []snapshotPayload
	hash     hash.Hash
	bodyState
}

// bodyState is everything about one body, zeroed between bodies.
type bodyState struct {
	size     int64 // Content-Length, ≤ 0 when unknown
	consumed int64

	// Where the tokenizer is: container stack (bit i of objects says whether
	// the container at depth i+1 is an object; deeper than 64 nothing is
	// diverted, and no valid JobSpec nests deeper than 3), then position
	// inside the innermost object.
	mode       int
	depth      int
	objects    uint64
	expectKey  bool // a string here is a key
	afterKey   bool // a key just ended; ':' makes it afterColon
	afterColon bool // the next token is the key's value
	snapKey    bool // ... and that key is "snapshot"
	escaped    bool // modeString/modeKey: previous byte was a backslash

	// modeSnapshot: the payload being decoded, the JSON escape in progress
	// (0 none, 1 after the backslash, 2–5 hex digits of \u read so far + 2),
	// base64 characters waiting for a full quantum, and whether padding has
	// been seen (after which any further character is an error).
	cur    snapshotPayload
	esc    int
	uni    uint32
	carry  [4]byte
	ncarry int
	padded bool
}

var bodyDecoders = sync.Pool{New: func() any { return &bodyDecoder{hash: sha256.New()} }}

var (
	errSnapshotControl = errors.New("control character in snapshot string")
	errSnapshotEscape  = errors.New("invalid escape in snapshot string")
	errSnapshotBase64  = errors.New("snapshot is not base64")
	errTrailingData    = errors.New("trailing data after the job spec")
)

// readJobSpec decodes a POST /v1/jobs body of the given Content-Length
// (≤ 0 when unknown). Inline snapshots come back as ModelSpec.Snapshot
// slices of pooled buffers with their digest already computed; call release
// once the spec has been submitted (the registry copies what it keeps).
func readJobSpec(r io.Reader, size int64) (spec JobSpec, release func(), err error) {
	d := bodyDecoders.Get().(*bodyDecoder)
	d.size = size
	payloads, err := d.run(r)
	release = func() {
		for _, p := range payloads {
			*p.buf = (*p.buf)[:0]
			snapshotBufs.Put(p.buf)
		}
	}
	if err == nil {
		spec, err = decodeJobSpecStrict(&d.rest)
	}
	d.reset()
	bodyDecoders.Put(d)
	if err != nil {
		return JobSpec{}, release, err
	}
	resolve := func(ms *ModelSpec) {
		if len(ms.Snapshot) != placeholderLen || !bytes.HasPrefix(ms.Snapshot, placeholderNonce[:]) {
			return
		}
		if i := int(binary.BigEndian.Uint32(ms.Snapshot[len(placeholderNonce):])); i < len(payloads) {
			ms.Snapshot, ms.digest = *payloads[i].buf, payloads[i].digest
		}
	}
	resolve(&spec.Model)
	for i := range spec.Models {
		resolve(&spec.Models[i])
	}
	return spec, release, nil
}

// decodeJobSpecStrict is the service's reading of a JobSpec document:
// unknown fields are errors, and so is anything but whitespace after it.
func decodeJobSpecStrict(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobSpec{}, errTrailingData
	}
	return spec, nil
}

func (d *bodyDecoder) reset() {
	d.rest.Reset()
	if d.rest.Cap() > 1<<20 {
		d.rest = bytes.Buffer{} // an outsized remainder is not worth pooling
	}
	d.hash.Reset()
	d.key, d.payloads = d.key[:0], d.payloads[:0]
	d.bodyState = bodyState{}
}

// run consumes the whole body. On return d.rest holds the remainder and the
// payloads are the diverted snapshots in order of appearance; they are
// returned even on error so their buffers can be recycled.
func (d *bodyDecoder) run(r io.Reader) ([]snapshotPayload, error) {
	var err error
	for err == nil {
		var n int
		n, err = r.Read(d.in[:])
		d.consumed += int64(n)
		if cerr := d.consume(d.in[:n]); cerr != nil {
			err = cerr
		}
	}
	if d.mode == modeSnapshot {
		d.payloads = append(d.payloads, d.cur) // recycle the partial buffer
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	payloads := slices.Clone(d.payloads)
	if err != io.EOF {
		return payloads, err
	}
	return payloads, nil
}

func (d *bodyDecoder) consume(b []byte) error {
	for i := 0; i < len(b); {
		switch d.mode {
		case modeSnapshot:
			n, err := d.snapshotBytes(b[i:])
			if err != nil {
				return err
			}
			i += n
		case modeString, modeKey:
			c := b[i]
			i++
			d.rest.WriteByte(c)
			if d.mode == modeKey && len(d.key) <= maxKeyLiteral {
				d.key = append(d.key, c)
			}
			switch {
			case d.escaped:
				d.escaped = false
			case c == '\\':
				d.escaped = true
			case c == '"':
				d.snapKey = d.mode == modeKey && isSnapshotKey(d.key)
				d.afterKey = d.mode == modeKey
				d.mode = modeOutside
			}
		default:
			c := b[i]
			i++
			if c == '"' && d.afterColon && d.snapKey {
				d.startSnapshot()
				continue
			}
			d.rest.WriteByte(c)
			d.outside(c)
		}
	}
	return nil
}

// outside advances the position state over one byte between strings.
func (d *bodyDecoder) outside(c byte) {
	wasKey, afterKey := d.expectKey, d.afterKey
	switch c {
	case ' ', '\t', '\r', '\n':
		return
	}
	d.expectKey, d.afterKey, d.afterColon = false, false, false
	switch c {
	case '"':
		if wasKey {
			d.mode, d.key = modeKey, append(d.key[:0], c)
		} else {
			d.mode = modeString
		}
	case ':':
		d.afterColon = afterKey
	case '{', '[':
		if d.depth < 64 {
			d.objects &^= 1 << d.depth
			if c == '{' {
				d.objects |= 1 << d.depth
			}
		}
		d.depth++
		d.expectKey = c == '{' && d.depth <= 64
	case '}', ']':
		if d.depth > 0 {
			d.depth--
		}
	case ',':
		d.expectKey = d.depth >= 1 && d.depth <= 64 && d.objects>>(d.depth-1)&1 == 1
	}
}

// isSnapshotKey reports whether a key literal (quotes included) names the
// snapshot field the way encoding/json matches it: unquoted, then compared
// case-insensitively under Unicode simple folding.
func isSnapshotKey(lit []byte) bool {
	if len(lit) < len(`"snapshot"`) || len(lit) > maxKeyLiteral {
		return false // escapes and folding variants only lengthen the literal
	}
	var key string
	return json.Unmarshal(lit, &key) == nil && strings.EqualFold(key, "snapshot")
}

func (d *bodyDecoder) startSnapshot() {
	d.mode = modeSnapshot
	d.afterColon = false
	d.cur = snapshotPayload{buf: snapshotBufs.Get().(*[]byte)}
	if d.size <= 0 {
		return
	}
	// What is left of the body bounds the string, so it bounds the decoded
	// size: one allocation for a buffer the pool did not already have. The
	// cap keeps a Content-Length nobody has sent yet from reserving much.
	left := d.size - d.consumed + int64(len(d.in))
	if need := min(base64.StdEncoding.DecodedLen(int(left)), maxUploadReserve); cap(*d.cur.buf) < need {
		*d.cur.buf = make([]byte, 0, need)
	}
}

// snapshotBytes consumes input inside a diverted string, up to and including
// its closing quote, returning how much it used. Runs free of quotes and
// backslashes go to the base64 decoder whole; escapes are taken a byte at a
// time. With the vector lane, each quantum boundary outside an escape goes
// to it first, and the run is cut to a window.
func (d *bodyDecoder) snapshotBytes(b []byte) (int, error) {
	i := 0
	for i < len(b) {
		if d.esc != 0 {
			if err := d.escapeByte(b[i]); err != nil {
				return 0, err
			}
			i++
			continue
		}
		span, stop := b[i:], byte(0)
		if base64Blocks != nil {
			if d.ncarry == 0 && !d.padded {
				i += d.decodeBlocks(b[i:])
			}
			span = b[i:min(len(b), i+scalarWindow-d.ncarry)]
		}
		if k := bytes.IndexByte(span, '"'); k >= 0 {
			span, stop = span[:k], '"'
		}
		if k := bytes.IndexByte(span, '\\'); k >= 0 {
			span, stop = span[:k], '\\'
		}
		// A raw line break is a JSON syntax error, but base64 skips line
		// breaks; every other control character base64 rejects by itself.
		if bytes.IndexByte(span, '\n') >= 0 || bytes.IndexByte(span, '\r') >= 0 {
			return 0, errSnapshotControl
		}
		if err := d.feed(span); err != nil {
			return 0, err
		}
		i += len(span)
		switch stop {
		case '\\':
			i++
			d.esc = 1
		case '"':
			i++
			return i, d.endSnapshot()
		}
	}
	return i, nil
}

// escapeByte advances a JSON escape sequence inside a diverted string by one
// byte. Escapes may spell base64 characters (\/ and \u00XX) and the line
// breaks base64 ignores; anything else they can produce is not base64.
func (d *bodyDecoder) escapeByte(c byte) error {
	if d.esc == 1 {
		d.esc = 0
		switch c {
		case 'n', 'r':
			return nil
		case '/':
			return d.feed([]byte{'/'})
		case 'u':
			d.esc, d.uni = 2, 0
			return nil
		case '"', '\\', 'b', 'f', 't':
			return errSnapshotBase64
		}
		return errSnapshotEscape
	}
	var v byte
	switch {
	case '0' <= c && c <= '9':
		v = c - '0'
	case 'a' <= c && c <= 'f':
		v = c - 'a' + 10
	case 'A' <= c && c <= 'F':
		v = c - 'A' + 10
	default:
		return errSnapshotEscape
	}
	d.uni = d.uni<<4 | uint32(v)
	if d.esc++; d.esc < 6 {
		return nil
	}
	d.esc = 0
	switch {
	case d.uni == '\n' || d.uni == '\r':
		return nil
	case d.uni < 0x80:
		return d.feed([]byte{byte(d.uni)})
	}
	return errSnapshotBase64
}

// feed passes unescaped, line-break-free string content to the base64
// decoder in whole quanta, carrying up to three characters between calls.
func (d *bodyDecoder) feed(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if d.ncarry > 0 {
		n := copy(d.carry[d.ncarry:], p)
		d.ncarry += n
		p = p[n:]
		if d.ncarry < len(d.carry) {
			return nil
		}
		d.ncarry = 0
		if err := d.decode(d.carry[:]); err != nil {
			return err
		}
	}
	whole := len(p) &^ 3
	if err := d.decode(p[:whole]); err != nil {
		return err
	}
	d.ncarry = copy(d.carry[:], p[whole:])
	return nil
}

// decodeBlocks runs the vector lane on string content that starts on a
// quantum boundary, appends what it decodes to the current payload and its
// hash, and returns how much of b it consumed. The buffer grows by what the
// blocks decode to, never for the kernel's overrun: the lane leaves a block
// whose store would not fit to the scalar code.
func (d *bodyDecoder) decodeBlocks(b []byte) int {
	if len(b) < 32 {
		return 0
	}
	buf := slices.Grow(*d.cur.buf, len(b)/32*24)
	off := len(buf)
	n := base64Blocks(buf[off:cap(buf)], b)
	if n > 0 {
		*d.cur.buf = buf[:off+n/4*3]
		d.hash.Write(buf[off : off+n/4*3])
	}
	return n
}

// decode appends the decoding of p, a whole number of quanta unless it is
// the string's last characters, to the current payload and its hash.
func (d *bodyDecoder) decode(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if d.padded {
		return errSnapshotBase64 // padding ends a base64 text
	}
	buf := slices.Grow(*d.cur.buf, base64.StdEncoding.DecodedLen(len(p)))
	off := len(buf)
	n, err := base64.StdEncoding.Decode(buf[off:cap(buf)], p)
	if err != nil {
		return fmt.Errorf("%w: %v", errSnapshotBase64, err)
	}
	*d.cur.buf = buf[:off+n]
	d.hash.Write(buf[off : off+n])
	d.padded = p[len(p)-1] == '='
	return nil
}

// endSnapshot closes the current payload at the string's closing quote and
// writes its placeholder into the remainder.
func (d *bodyDecoder) endSnapshot() error {
	if d.ncarry > 0 {
		// An incomplete quantum: the decoder words the error.
		n := d.ncarry
		d.ncarry = 0
		if err := d.decode(d.carry[:n]); err != nil {
			return err
		}
	}
	if *d.cur.buf == nil {
		*d.cur.buf = []byte{} // "" decodes to empty, not absent
	}
	d.cur.digest = hex.EncodeToString(d.hash.Sum(nil))
	d.hash.Reset()
	d.padded = false

	var ph [placeholderLen]byte
	copy(ph[:], placeholderNonce[:])
	binary.BigEndian.PutUint32(ph[len(placeholderNonce):], uint32(len(d.payloads)))
	d.payloads = append(d.payloads, d.cur)
	d.cur = snapshotPayload{}
	d.rest.WriteByte('"')
	d.rest.WriteString(base64.StdEncoding.EncodeToString(ph[:]))
	d.rest.WriteByte('"')
	d.mode = modeOutside
	return nil
}
