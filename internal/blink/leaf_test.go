package blink

import (
	"testing"

	"xrtree/internal/xmldoc"
)

// leafOf builds a leaf page of pageSize bytes holding elements at the
// given starts.
func leafOf(pageSize int, starts []uint32) []byte {
	data := make([]byte, pageSize)
	InitLeaf(data)
	for i, s := range starts {
		InsertLeafEntry(data, i, i, xmldoc.Element{Start: s, End: s + 1}, 0)
	}
	return data
}

// TestLeafSearchFrom checks the galloping search against the plain binary
// search on an empty leaf, a one-entry leaf and a full leaf, from every
// cursor position, for keys below, inside, equal to and above the entries.
func TestLeafSearchFrom(t *testing.T) {
	const pageSize = 512
	full := make([]uint32, (pageSize-LeafHeader)/xmldoc.EncodedSize)
	for i := range full {
		full[i] = uint32(3*i + 2)
	}
	for name, starts := range map[string][]uint32{"empty": nil, "one": {7}, "full": full} {
		data := leafOf(pageSize, starts)
		n := LeafCount(data)
		if n != len(starts) {
			t.Fatalf("%s: LeafCount = %d, want %d", name, n, len(starts))
		}
		keys := []uint32{0, 1 << 31}
		for i := 0; i < n; i++ {
			k := LeafKey(data, i)
			keys = append(keys, k-1, k, k+1)
		}
		for hint := 0; hint <= n; hint++ {
			for _, k := range keys {
				if got, want := LeafSearchFrom(data, hint, k), LeafSearch(data, k); got != want {
					t.Fatalf("%s leaf: LeafSearchFrom(hint %d, key %d) = %d, LeafSearch = %d", name, hint, k, got, want)
				}
			}
		}
	}
}
