package invariant

import "encoding/binary"

// Checksum returns an FNV-1a hash of b taken a little-endian 64-bit word
// at a time, then byte by byte over the last len(b)%8 bytes. The buffer
// pool records one per resting page under xrtreedebug and re-verifies it
// on the next fetch, catching writes to unpinned frames (use-after-unpin)
// and torn evict/readmit cycles. Hashing words rather than bytes makes it
// about eight times cheaper: byte by byte, it was three quarters of a
// debug build's CPU under concurrent readers.
func Checksum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for ; len(b) >= 8; b = b[8:] {
		h ^= binary.LittleEndian.Uint64(b)
		h *= prime64
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
