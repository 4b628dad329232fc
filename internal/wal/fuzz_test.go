package wal

import (
	"fmt"
	"os"
	"testing"

	"xrtree/internal/pagefile"
)

// fuzzApplier rejects images of the wrong size — replay must never hand
// the page file a malformed image, no matter what the log bytes say.
type fuzzApplier struct{ ps int }

func (a fuzzApplier) ApplyPage(id pagefile.PageID, data []byte) error {
	if len(data) != a.ps {
		panic("replay applied a wrong-sized image")
	}
	if id == pagefile.InvalidPage {
		panic("replay applied the invalid page id")
	}
	return nil
}

// memFS serves one read-only segment from memory, so each fuzz exec costs
// no disk I/O.
type memFS struct {
	name string
	data []byte
}

func (m *memFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if name != m.name {
		return nil, fmt.Errorf("memFS: no file %s", name)
	}
	return &memFile{data: m.data}, nil
}
func (m *memFS) ReadDir(dir string) ([]string, error)        { return []string{segmentName(0)}, nil }
func (m *memFS) Remove(name string) error                    { return nil }
func (m *memFS) MkdirAll(dir string, perm os.FileMode) error { return nil }

type memFile struct{ data []byte }

func (f *memFile) WriteAt([]byte, int64) (int, error) { return 0, fmt.Errorf("memFile: read-only") }
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, fmt.Errorf("memFile: read past end")
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("memFile: short read")
	}
	return n, nil
}
func (f *memFile) Size() (int64, error) { return int64(len(f.data)), nil }
func (f *memFile) Sync() error          { return nil }
func (f *memFile) Close() error         { return nil }

// fuzzSeedSegment builds a small valid segment: two committed
// transactions with a checkpoint between them, one uncommitted.
func fuzzSeedSegment() []byte {
	img := make([]byte, 4+fuzzPS)
	data := encodeSegmentHeader(fuzzPS, 0)
	le.PutUint32(img, 3)
	data = append(data, appendRecord(nil, recPage, 1, img)...)
	data = append(data, appendRecord(nil, recCommit, 1, nil)...)
	data = append(data, appendRecord(nil, recCheckpoint, 0, nil)...)
	le.PutUint32(img, 5)
	data = append(data, appendRecord(nil, recPage, 2, img)...)
	data = append(data, appendRecord(nil, recCommit, 2, nil)...)
	le.PutUint32(img, 7)
	data = append(data, appendRecord(nil, recPage, 3, img)...)
	return data
}

const fuzzPS = 256

// FuzzWALReplay feeds arbitrary bytes to recovery as the store's only log
// segment. Whatever the bytes, Replay must return normally — reporting a
// torn tail or an error, never panicking — and must never emit a
// malformed page image.
func FuzzWALReplay(f *testing.F) {
	seed := fuzzSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)-9])                 // torn tail mid-record
	f.Add(seed[:segHeader])                   // header only
	f.Add(seed[:7])                           // torn header
	f.Add(append(seed, make([]byte, 600)...)) // zero fill after the records
	f.Add([]byte{})                           // empty segment file
	flip := append([]byte(nil), seed...)      // CRC mismatch
	flip[segHeader+recHeader+2] ^= 0x40
	f.Add(flip)
	huge := append([]byte(nil), seed...) // absurd stated record length
	le.PutUint32(huge[segHeader:], 0xfffffff0)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := &memFS{name: "log/" + segmentName(0), data: data}
		rep, err := Replay(fsys, "log", fuzzPS, fuzzApplier{ps: fuzzPS})
		if err != nil {
			return // rejected cleanly
		}
		if rep.NextLSN > uint64(len(data))+segHeader {
			t.Fatalf("NextLSN %d past the end of a %d-byte segment", rep.NextLSN, len(data))
		}
	})
}
