package sample

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestPositiveCount: the installed count of drawing weights against w > 0,
// over zeros of both signs, negatives, NaN, ±Inf and subnormals at every
// offset and length mod 4.
func TestPositiveCount(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, math.MaxFloat64}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		ws := make([]float64, rng.Intn(40))
		want := 0
		for i := range ws {
			ws[i] = special[rng.Intn(len(special))]
			if ws[i] > 0 {
				want++
			}
		}
		if got := positive(ws); got != want {
			t.Fatalf("%v: counted %d positive, want %d", ws, got, want)
		}
	}
}

// checkKeys runs the installed logKeys (keysAVX2 where the CPU has AVX2) on
// us and ws and holds every key to math.Log(u)/w, bit for bit. Lengths
// that are not a multiple of four send the tail through the Go lane.
func checkKeys(t *testing.T, us, ws []float64) {
	t.Helper()
	keys := append([]float64(nil), us...)
	logKeys(keys, ws)
	for i, u := range us {
		want := math.Log(u) / ws[i]
		if math.Float64bits(keys[i]) != math.Float64bits(want) {
			t.Fatalf("u=%v (%#x) w=%v: key %v (%#x), math.Log(u)/w = %v (%#x)",
				u, math.Float64bits(u), ws[i], keys[i], math.Float64bits(keys[i]), want, math.Float64bits(want))
		}
	}
}

// hardUniforms lists the u the log is most likely to get wrong: every
// exponent of [2⁻⁶³, 1) at both ends of its mantissa and in between, the
// largest double below 1, and the mantissas within two ulps of √2/2, where
// archLog's ≤ decides whether the mantissa is doubled, at every exponent.
func hardUniforms(rng *rand.Rand) []float64 {
	var us []float64
	for e := -63; e <= -1; e++ {
		lo := math.Ldexp(1, e)
		us = append(us, lo, math.Nextafter(2*lo, 0), lo*(1+rng.Float64()))
		for d := -2; d <= 2; d++ {
			bits := int64(math.Float64bits(math.Sqrt2/2)) + int64(d)
			us = append(us, math.Ldexp(math.Float64frombits(uint64(bits)), e+1))
		}
	}
	return append(us, 1-0x1p-53, 0x1p-63, 0.5, 0.75)
}

// TestLogKeysMatchMathLog: the hard uniforms against unit, subnormal, huge
// and infinite weights, and a million draws of rand.Float64 against
// exponential weights.
func TestLogKeysMatchMathLog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	us := hardUniforms(rng)
	for _, w := range []float64{1, 3, 0.1, math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, 1e300, math.Inf(1)} {
		ws := make([]float64, len(us))
		for i := range ws {
			ws[i] = w
		}
		checkKeys(t, us, ws)
	}
	const n = 1 << 20
	us, ws := make([]float64, n+3), make([]float64, n+3)
	for i := range us {
		for us[i] == 0 {
			us[i] = rng.Float64()
		}
		ws[i] = rng.ExpFloat64()
	}
	checkKeys(t, us, ws)
}

// FuzzWeightedKeys holds the installed key lane to math.Log(u)/w on
// uniforms and weights read from the bytes, 16 bytes a pair: u is any
// finite positive double below 1, w any positive double or +Inf.
func FuzzWeightedKeys(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	hard := hardUniforms(rng)
	weights := []float64{1, math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, math.Inf(1), 0.5}
	for i := 0; i+4 <= len(hard); i += 4 {
		var b []byte
		for j, u := range hard[i : i+4] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(u))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(weights[(i+j)%len(weights)]))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var us, ws []float64
		for ; len(b) >= 16; b = b[16:] {
			u := math.Float64frombits(binary.LittleEndian.Uint64(b) &^ (1 << 63))
			w := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]) &^ (1 << 63))
			if !(u > 0 && u < 1) || !(w > 0) {
				continue
			}
			us, ws = append(us, u), append(ws, w)
		}
		checkKeys(t, us, ws)
	})
}
