//go:build amd64 && !purego

package sample

import "kgeval/internal/cpu"

// The kernels (draw_amd64.s) trust their arguments; refill and the vec
// functions below are their only callers. refillAVX2 is refillGo.
// positiveAVX2 is positiveGo over n weights, n a multiple of four.
// uniformsAVX2 is toUniformsGo over n outputs, n a multiple of four, four at
// a time, up to the first group of four that holds an output to be drawn
// again; it returns how many it converted, all of them kept. keysAVX2 is
// logKeysGo over n keys, n a multiple of four.
//
//go:noescape
func refillAVX2(vec *[streamLen]uint64)

//go:noescape
func positiveAVX2(ws *float64, n int) (count int)

//go:noescape
func uniformsAVX2(dst *float64, src *uint64, n int) (done int)

//go:noescape
func keysAVX2(keys, ws *float64, n int)

func init() {
	if cpu.AVX2 {
		refill, positive, toUniforms, logKeys = refillAVX2, vecPositive, vecToUniforms, vecLogKeys
	}
}

// vecPositive gives positiveAVX2 positiveGo's signature and is the
// memory-safety boundary in front of it. The last len(ws) mod 4 weights go
// through positiveGo.
func vecPositive(ws []float64) (count int) {
	n := len(ws) &^ 3
	if n > 0 {
		count = positiveAVX2(&ws[0], n)
	}
	return count + positiveGo(ws[n:])
}

// vecToUniforms gives uniformsAVX2 toUniformsGo's signature and is the
// memory-safety boundary in front of it. Whatever the kernel leaves — the
// last len(src) mod 4 outputs, or everything from a group with an output to
// be drawn again on — goes through toUniformsGo.
func vecToUniforms(dst []float64, src []uint64) (kept int) {
	dst = dst[:len(src)]
	if n := len(src) &^ 3; n > 0 {
		kept = uniformsAVX2(&dst[0], &src[0], n)
	}
	return kept + toUniformsGo(dst[kept:], src[kept:])
}

// vecLogKeys is the same boundary in front of keysAVX2. The last
// len(keys) mod 4 keys go through logKeysGo.
func vecLogKeys(keys, ws []float64) {
	ws = ws[:len(keys)]
	n := len(keys) &^ 3
	if n > 0 {
		keysAVX2(&keys[0], &ws[0], n)
	}
	logKeysGo(keys[n:], ws[n:])
}
