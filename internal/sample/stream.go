package sample

import (
	"math/rand"
	"sync"
)

// The generator behind rand.NewSource is an additive lagged Fibonacci
// generator: its n-th output is x_n = x_{n−607} + x_{n−273} mod 2⁶⁴, so the
// last 607 outputs are its whole state.
const (
	streamLen = 607
	streamTap = 273
)

// Stream is rand.NewSource(seed)'s stream of values, computed here from the
// source's first 607 outputs, so that a caller that wants many uniforms at
// once can have them without a call through an interface per value
// (Scratch.Draw). It implements rand.Source64, and rand.New(stream) reads,
// value for value, what rand.New(rand.NewSource(seed)) reads; the two
// readers may share one Stream, taking turns. A Stream is not safe for
// concurrent use.
type Stream struct {
	vec [streamLen]uint64 // vec[n mod 607] holds x_n for the 607 outputs up to the last one computed
	pos int               // the slot of the next output; streamLen when vec is all read
}

// NewStream returns the stream of rand.NewSource(seed).
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.Seed(seed)
	return s
}

// Seed restarts the stream as rand.NewSource(seed)'s.
func (s *Stream) Seed(seed int64) {
	src := seeders.Get().(rand.Source64)
	defer seeders.Put(src)
	src.Seed(seed)
	for i := range s.vec {
		s.vec[i] = src.Uint64()
	}
	s.pos = 0
}

// seeders holds the rand.NewSource generators Seed reads a seed's first
// outputs from, reseeded in place, so that a Stream costs its own 4.9 KB
// and no more: one per evaluation plan, as the source it stands in for did.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0) }}

// refillGo computes the next 607 outputs in place: slot i goes from x_n to
// x_{n+607} = x_n + x_{n+334}, where x_{n+334} sits in slot i+334 for the
// first 273 slots and, already advanced, in slot i−273 for the rest.
func refillGo(vec *[streamLen]uint64) {
	lo, hi := vec[:streamTap], vec[streamLen-streamTap:]
	for i := range lo {
		lo[i] += hi[i]
	}
	lo, hi = vec[:streamLen-streamTap], vec[streamTap:]
	for i := range hi {
		hi[i] += lo[i]
	}
}

// Uint64 returns the next output.
func (s *Stream) Uint64() uint64 {
	if s.pos == streamLen {
		refill(&s.vec)
		s.pos = 0
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

// Int63 returns the next output's low 63 bits, as rand.NewSource's does.
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// uniforms fills dst with what len(dst) calls of rand.New(s).Float64 would
// return, with every 0 drawn again: the uniforms in (0, 1) that Weighted
// takes per positive weight. Rand.Float64 is Int63()/2⁶³ and draws again
// when that rounds to 1; the multiplication by 2⁻⁶³ is the same exact
// scaling. An Int63 v gives 0 only when v = 0, and rounds to 1 exactly when
// v ≥ 2⁶³ − 512 (the doubles below 2⁶³ are 1 024 apart, and the tie goes to
// the even 2⁶³), so v is kept when 0 < v < 2⁶³ − 512, one unsigned compare
// of v − 1; toUniforms converts a chunk, on AVX2 where the CPU has it.
// Each chunk reads no more outputs than dst still needs, so the
// stream is left where the per-value draws leave it.
func (s *Stream) uniforms(dst []float64) {
	for len(dst) > 0 {
		if s.pos == streamLen {
			refill(&s.vec)
			s.pos = 0
		}
		src := s.vec[s.pos:min(streamLen, s.pos+len(dst))]
		s.pos += len(src)
		n := toUniforms(dst[:len(src)], src)
		dst = dst[n:]
	}
}
