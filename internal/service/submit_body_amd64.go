//go:build amd64 && !purego

package service

import "kgeval/internal/cpu"

// decodeBase64AVX2 is the kernel of submit_body_amd64.s. It trusts its
// arguments; vecBase64 is the only caller.
//
//go:noescape
func decodeBase64AVX2(dst, src *byte, blocks int) (n int)

func init() {
	if cpu.AVX2 {
		base64Blocks = vecBase64
	}
}

// vecBase64 decodes the longest run of whole 32-character blocks at the
// start of src that are all in the standard base64 alphabet into dst, 24
// bytes per block, and returns how many characters it consumed. It is the
// memory-safety boundary in front of the kernel: the run is cut to the
// blocks src holds and to those whose 32-byte store (8 bytes past the 24 it
// decodes) fits in dst, so the assembly only touches what the slices span.
func vecBase64(dst, src []byte) int {
	blocks := min(len(src)/32, (len(dst)-8)/24)
	if blocks <= 0 {
		return 0
	}
	src, dst = src[:blocks*32], dst[:blocks*24+8]
	return 32 * decodeBase64AVX2(&dst[0], &src[0], blocks)
}
