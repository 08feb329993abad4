//go:build !amd64 || purego

package store

// columnsAVX places no rows off amd64 or under purego; TileColumns' Go loop
// places them all.
func (s *Store) columnsAVX(ids []int32, buf []float64) (placed int) { return 0 }

// columns32AVX places no rows off amd64 or under purego; TileColumns32's Go
// loop places them all.
func (s *Store) columns32AVX(ids []int32, stride int, buf []float32) (placed int, maxAbs float64) {
	return 0, 0
}
