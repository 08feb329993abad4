//go:build amd64 && !purego

package eval

import "kgeval/internal/cpu"

// countAVX2 is countGo and outsideAVX2 is outsideGo, over n scores, n a
// multiple of eight (count_amd64.s). They trust their arguments; vecCount
// and vecOutside are the only callers.
//
//go:noescape
func countAVX2(scores *float64, n int, t float64) (better, ties int)

//go:noescape
func outsideAVX2(scores *float64, n int, lo, hi float64) (above, below int)

func init() {
	if cpu.AVX2 {
		countScores, countOutside = vecCount, vecOutside
	}
}

// vecCount gives countAVX2 countGo's signature and, like kgc's vecTile, is
// the memory-safety boundary in front of it: the kernel gets a pointer into
// scores and a length the slice has already been checked to hold. The last
// len(scores) mod 8 scores go through countGo.
func vecCount(scores []float64, t float64) (better, ties int) {
	n := len(scores) &^ 7
	if n > 0 {
		better, ties = countAVX2(&scores[0], n, t)
	}
	b, e := countGo(scores[n:], t)
	return better + b, ties + e
}

// vecOutside is the same boundary in front of outsideAVX2.
func vecOutside(scores []float64, lo, hi float64) (above, below int) {
	n := len(scores) &^ 7
	if n > 0 {
		above, below = outsideAVX2(&scores[0], n, lo, hi)
	}
	a, b := outsideGo(scores[n:], lo, hi)
	return above + a, below + b
}
