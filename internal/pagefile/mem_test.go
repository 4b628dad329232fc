package pagefile

import (
	"bytes"
	"math/bits"
	"testing"
)

// TestMemGrowthAmortised pins the in-memory backend's growth: n
// sequential extending page writes reallocate its buffer O(log n) times,
// not once per write, so building a memory store is linear in its size.
func TestMemGrowthAmortised(t *testing.T) {
	const pageSize, n = 512, 4096
	page := bytes.Repeat([]byte{0xAB}, pageSize)
	m := &memBackend{}
	reallocs := 0
	for i := int64(0); i < n; i++ {
		before := cap(m.buf)
		m.WriteAt(page, i*pageSize)
		if cap(m.buf) != before {
			reallocs++
		}
	}
	if limit := 4 * bits.Len(n); reallocs > limit {
		t.Errorf("%d extending writes reallocated %d times, want at most %d", n, reallocs, limit)
	}
}

// TestMemExtendAfterTruncateReadsZeros checks that growing back over a
// truncated tail exposes zeros, as a file extension does, not the bytes
// the truncation dropped.
func TestMemExtendAfterTruncateReadsZeros(t *testing.T) {
	m := &memBackend{}
	m.WriteAt(bytes.Repeat([]byte{0xFF}, 64), 0)
	m.Truncate(16)
	m.WriteAt([]byte{1}, 48)
	got := make([]byte, 49)
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(append(bytes.Repeat([]byte{0xFF}, 16), make([]byte, 32)...), 1)
	if !bytes.Equal(got, want) {
		t.Errorf("after truncate and extend: %v, want %v", got, want)
	}
}
