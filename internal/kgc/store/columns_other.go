//go:build !amd64 || purego

package store

// columnsAVX places no rows off amd64 or under purego; TileColumns' Go loop
// places them all.
func (s *Store) columnsAVX(ids []int32, buf []float64) int { return 0 }
