//go:build amd64 && !purego

package eval

import "kgeval/internal/cpu"

// outsideAVX2 is outsideGo over n scores, n a multiple of eight
// (count_amd64.s). It trusts its arguments; vecOutside is the only caller.
//
//go:noescape
func outsideAVX2(scores *float64, n int, lo, hi float64) (above, below int)

func init() {
	if cpu.AVX2 {
		countOutside = vecOutside
	}
}

// vecOutside gives outsideAVX2 outsideGo's signature and, like kgc's
// vecTile, is the memory-safety boundary in front of it: the kernel gets a
// pointer into scores and a length the slice has already been checked to
// hold. The last len(scores) mod 8 scores go through outsideGo.
func vecOutside(scores []float64, lo, hi float64) (above, below int) {
	n := len(scores) &^ 7
	if n > 0 {
		above, below = outsideAVX2(&scores[0], n, lo, hi)
	}
	a, b := outsideGo(scores[n:], lo, hi)
	return above + a, below + b
}
