//go:build amd64 && !purego

package eval

import "kgeval/internal/cpu"

// countAVX2 is countGo over n scores, n a multiple of eight (count_amd64.s).
// It trusts its arguments; vecCount is the only caller.
//
//go:noescape
func countAVX2(scores *float64, n int, t float64) (better, ties int)

func init() {
	if cpu.AVX2 {
		countScores = vecCount
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
