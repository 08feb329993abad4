package sample

import "math"

// The pool draw's loops over every weight and every output of the stream
// have AVX2 twins (draw_amd64.s), installed where internal/cpu finds AVX2;
// each gives the Go lane's results bit for bit.
var (
	// refill computes a Stream's next 607 outputs in place.
	refill = refillGo
	// positive counts the weights w > 0, those that draw a uniform.
	positive = positiveGo
	// toUniforms converts one chunk of the stream's outputs to uniforms as
	// Stream.uniforms describes, and returns how many it kept.
	toUniforms = toUniformsGo
	// logKeys sets keys[i] = log(keys[i]) / ws[i], the Efraimidis–Spirakis
	// key of uniform keys[i] under weight ws[i] in log space, for every i <
	// len(keys); ws must be at least as long. The AVX2 lane returns
	// math.Log(u)/w's bits for every finite positive u.
	logKeys = logKeysGo
)

func positiveGo(ws []float64) (count int) {
	for _, w := range ws {
		if w > 0 { // not zero, negative or NaN
			count++
		}
	}
	return count
}

// toUniformsGo writes the uniform of each kept output of src to dst, which
// is as long as src; the slots past the last kept one hold scrap.
func toUniformsGo(dst []float64, src []uint64) (kept int) {
	dst = dst[:len(src)]
	for _, x := range src {
		v := x & (1<<63 - 1)
		dst[kept] = float64(int64(v)) * 0x1p-63
		if v-1 < 1<<63-513 {
			kept++
		}
	}
	return kept
}

func logKeysGo(keys, ws []float64) {
	ws = ws[:len(keys)]
	for i, u := range keys {
		keys[i] = math.Log(u) / ws[i]
	}
}
