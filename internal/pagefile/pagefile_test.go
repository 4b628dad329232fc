package pagefile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	f, err := Create(path, Options{PageSize: 512})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	id, err := f.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	want := make([]byte, 512)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := f.WritePage(id, want); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	f2, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f2.Close()
	if f2.PageSize() != 512 {
		t.Errorf("PageSize = %d, want 512", f2.PageSize())
	}
	got := make([]byte, 512)
	if err := f2.ReadPage(id, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("page contents did not round-trip")
	}
}

func TestAllocateReusesFreedPages(t *testing.T) {
	f := NewMem(Options{PageSize: 256})
	defer f.Close()
	a, _ := f.Allocate()
	b, _ := f.Allocate()
	c, _ := f.Allocate()
	if a == b || b == c || a == c {
		t.Fatalf("allocated ids not distinct: %d %d %d", a, b, c)
	}
	if err := f.Free(b); err != nil {
		t.Fatalf("Free: %v", err)
	}
	d, err := f.Allocate()
	if err != nil {
		t.Fatalf("Allocate after free: %v", err)
	}
	if d != b {
		t.Errorf("Allocate = %d, want reused page %d", d, b)
	}
	n := f.NumPages()
	if _, err := f.Allocate(); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if f.NumPages() != n+1 {
		t.Errorf("NumPages = %d, want %d", f.NumPages(), n+1)
	}
}

func TestFreeListSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "free.db")
	f, err := Create(path, Options{PageSize: 256})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	a, _ := f.Allocate()
	b, _ := f.Allocate()
	_ = b
	if err := f.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f2, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f2.Close()
	got, err := f2.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if got != a {
		t.Errorf("Allocate after reopen = %d, want freed page %d", got, a)
	}
}

func TestPageBoundsChecks(t *testing.T) {
	f := NewMem(Options{PageSize: 256})
	defer f.Close()
	buf := make([]byte, 256)
	if err := f.ReadPage(InvalidPage, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("ReadPage(0) err = %v, want ErrPageOutOfRange", err)
	}
	if err := f.ReadPage(99, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("ReadPage(99) err = %v, want ErrPageOutOfRange", err)
	}
	if err := f.WritePage(99, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("WritePage(99) err = %v, want ErrPageOutOfRange", err)
	}
	if err := f.Free(InvalidPage); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("Free(0) err = %v, want ErrPageOutOfRange", err)
	}
	if err := f.ReadPage(1, make([]byte, 10)); err == nil {
		t.Error("ReadPage with short buffer succeeded, want error")
	}
}

func TestBadPageSizeRejected(t *testing.T) {
	dir := t.TempDir()
	for _, ps := range []int{100, 257, 3000} {
		_, err := Create(filepath.Join(dir, "bad.db"), Options{PageSize: ps})
		if !errors.Is(err, ErrBadPageSize) {
			t.Errorf("Create(pageSize=%d) err = %v, want ErrBadPageSize", ps, err)
		}
	}
}

func TestClosedFileFails(t *testing.T) {
	f := NewMem(Options{})
	id, _ := f.Allocate()
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if _, err := f.Allocate(); !errors.Is(err, ErrClosed) {
		t.Errorf("Allocate after close err = %v, want ErrClosed", err)
	}
	if err := f.ReadPage(id, make([]byte, f.PageSize())); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadPage after close err = %v, want ErrClosed", err)
	}
}

func TestStatsCountPhysicalIO(t *testing.T) {
	f := NewMem(Options{PageSize: 256})
	defer f.Close()
	f.ResetStats()
	id, _ := f.Allocate()
	buf := make([]byte, 256)
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.PhysicalReads < 1 {
		t.Errorf("PhysicalReads = %d, want ≥ 1", st.PhysicalReads)
	}
	if st.PhysicalWrites < 1 {
		t.Errorf("PhysicalWrites = %d, want ≥ 1", st.PhysicalWrites)
	}
	f.ResetStats()
	if got := f.Stats(); got.PhysicalReads != 0 || got.PhysicalWrites != 0 {
		t.Errorf("after ResetStats: %+v", got)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.db")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xAB}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("Open of garbage file succeeded, want error")
	}
}

// TestOpenRefusesOldVersion verifies both open paths return the typed
// ErrVersion for a structurally valid file written by an earlier page
// format (pre-B-link, no high-key/right-link headers), and plain
// ErrBadHeader for a version from the future.
func TestOpenRefusesOldVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v1.db")
	f, err := Create(path, Options{PageSize: MinPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stamp := func(version uint32) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		le.PutUint32(raw[4:], version)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stamp(1)
	if _, err := Open(path); !errors.Is(err, ErrVersion) {
		t.Errorf("Open of version-1 file: err = %v, want ErrVersion", err)
	}
	if _, err := OpenRepair(path); !errors.Is(err, ErrVersion) {
		t.Errorf("OpenRepair of version-1 file: err = %v, want ErrVersion", err)
	}
	stamp(headerVersion + 1)
	if _, err := Open(path); !errors.Is(err, ErrBadHeader) {
		t.Errorf("Open of future-version file: err = %v, want ErrBadHeader", err)
	}
}

// TestPropertyWriteReadIdentity is a property test: any page written can be
// read back identically, across a random sequence of allocations.
func TestPropertyWriteReadIdentity(t *testing.T) {
	f := NewMem(Options{PageSize: 256})
	defer f.Close()
	check := func(data [256]byte) bool {
		id, err := f.Allocate()
		if err != nil {
			return false
		}
		if err := f.WritePage(id, data[:]); err != nil {
			return false
		}
		got := make([]byte, 256)
		if err := f.ReadPage(id, got); err != nil {
			return false
		}
		return bytes.Equal(got, data[:])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFreeReallocate checks that freeing then reallocating any set
// of pages never hands out the same page twice concurrently.
func TestPropertyFreeReallocate(t *testing.T) {
	check := func(frees []bool) bool {
		f := NewMem(Options{PageSize: 256})
		defer f.Close()
		if len(frees) > 64 {
			frees = frees[:64]
		}
		ids := make([]PageID, len(frees))
		for i := range frees {
			id, err := f.Allocate()
			if err != nil {
				return false
			}
			ids[i] = id
		}
		freed := 0
		for i, doFree := range frees {
			if doFree {
				if err := f.Free(ids[i]); err != nil {
					return false
				}
				freed++
			}
		}
		// Reallocate; all returned ids must be distinct.
		seen := make(map[PageID]bool)
		for i := 0; i < freed+5; i++ {
			id, err := f.Allocate()
			if err != nil {
				return false
			}
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
