// Package crashtest is the crash-injection harness behind `make
// crash-smoke` and cmd/xrcrash: it runs a randomized insert/delete
// workload against a WAL-enabled store whose log dies after a chosen
// number of bytes — tearing the final write partway through — then
// reopens the store, lets recovery redo the log, and verifies that every
// acknowledged operation survived and every index invariant holds.
package crashtest

import (
	"errors"
	"math"
	"os"
	"sync"

	"xrtree/internal/wal"
)

// ErrCrashed is the error every filesystem operation returns once the
// byte budget is spent.
var ErrCrashed = errors.New("crashtest: injected crash")

// FS wraps the OS filesystem and kills the log after a byte budget. The
// budget counts the log's content — segment headers and records — but not
// the zero fill that sizes each new segment, so kill points drawn over a
// probe run's LogBytes land in records and headers. The write that
// crosses the budget is torn partway through (its prefix reaches the
// file, like a sector-aligned crash mid-write), and every later write and
// fsync fails. An FS made with inFill instead lets the content through and
// tears, halfway, the first segment fill written once the budget is
// spent: the crash hits while Start or a rotation creates a segment. Every
// fill tear is that one case, so a few runs cover it. Reads keep working
// so recovery can run against the torn result.
type FS struct {
	mu      sync.Mutex
	remain  int64
	inFill  bool
	written int64
	crashed bool
	kind    KillKind
}

// KillKind names what the write torn by the crash was writing.
type KillKind string

const (
	KillHeader KillKind = "header" // a new segment's header
	KillFill   KillKind = "fill"   // a new segment's zero fill
	KillRecord KillKind = "record" // a commit's or marker's records
)

// NewFS returns a crash-injecting filesystem that dies after budget
// written header and record bytes, or, with inFill, in the first segment
// fill after them. With budget ≤ 0 it never dies and only counts.
func NewFS(budget int64, inFill bool) *FS {
	if budget <= 0 {
		budget = math.MaxInt64
	}
	return &FS{remain: budget, inFill: inFill}
}

// Crashed reports whether the budget has been hit.
func (c *FS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Written returns the header and record bytes written so far.
func (c *FS) Written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

// Kill returns what the torn write was writing; empty until the crash.
func (c *FS) Kill() KillKind {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kind
}

// charge consumes the budget for writing p at off, returning how many of
// its bytes may still be written (< len(p) once the crash fires).
func (c *FS) charge(p []byte, off int64) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, false
	}
	n := int64(len(p))
	kind := writeKind(p, off)
	if kind == KillFill {
		if c.inFill && c.remain == 0 {
			c.crashed, c.kind = true, kind
			return n / 2, false
		}
		return n, true
	}
	if n > c.remain && !c.inFill {
		part := c.remain
		c.remain = 0
		c.written += part
		c.crashed, c.kind = true, kind
		return part, false
	}
	c.remain = max(c.remain-n, 0)
	c.written += n
	return n, true
}

// writeKind classifies a write by its content: the log writes a segment's
// header at offset 0 and its fill as all-zero chunks, and every record
// has a non-zero type byte.
func writeKind(p []byte, off int64) KillKind {
	if off == 0 {
		return KillHeader
	}
	for _, b := range p {
		if b != 0 {
			return KillRecord
		}
	}
	return KillFill
}

// OpenFile implements wal.FS.
func (c *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := wal.OSFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: c, f: f}, nil
}

// ReadDir implements wal.FS.
func (c *FS) ReadDir(dir string) ([]string, error) { return wal.OSFS{}.ReadDir(dir) }

// Remove implements wal.FS. Removes are failed after the crash so a dying
// process cannot keep pruning segments.
func (c *FS) Remove(name string) error {
	if c.Crashed() {
		return ErrCrashed
	}
	return wal.OSFS{}.Remove(name)
}

// MkdirAll implements wal.FS.
func (c *FS) MkdirAll(dir string, perm os.FileMode) error {
	if c.Crashed() {
		return ErrCrashed
	}
	return wal.OSFS{}.MkdirAll(dir, perm)
}

type crashFile struct {
	fs *FS
	f  wal.File
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	allowed, ok := f.fs.charge(p, off)
	if ok {
		return f.f.WriteAt(p, off)
	}
	if allowed > 0 {
		f.f.WriteAt(p[:allowed], off)
	}
	return int(allowed), ErrCrashed
}

func (f *crashFile) Sync() error {
	if f.fs.Crashed() {
		return ErrCrashed
	}
	return f.f.Sync()
}

func (f *crashFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *crashFile) Size() (int64, error)                    { return f.f.Size() }
func (f *crashFile) Close() error                            { return f.f.Close() }
