// Package pagefile implements the paged storage manager underneath every
// index in this reproduction. A File is a flat array of fixed-size pages
// addressed by PageID, backed either by an operating-system file or by an
// in-memory store (for tests and benchmarks that want deterministic I/O
// accounting without filesystem noise).
//
// The manager keeps a free list threaded through freed pages so space is
// reused, and counts physical reads and writes so experiments can report
// I/O exactly as the paper does.
package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
)

var le = binary.LittleEndian

// PageID identifies a page within a File. Page 0 is the file header and is
// never handed out; InvalidPage (0) therefore doubles as a nil pointer in
// on-page structures.
type PageID uint32

// InvalidPage is the zero PageID, used as a nil page pointer on disk.
const InvalidPage PageID = 0

// DefaultPageSize is the page size used unless overridden; 4 KiB matches
// common database pages and the scale the paper assumes.
const DefaultPageSize = 4096

// MinPageSize is the smallest supported page size. Small pages are useful
// in tests to force deep trees and multi-page stab lists.
const MinPageSize = 256

const (
	headerMagic = 0x58525446 // "XRTF"
	// headerVersion 2 (the B-link page format): index pages carry a
	// high key and right-sibling link in their headers. Version-1 files
	// (coarse-latch era, no right-links) cannot be patched in place —
	// every index page would need its high key derived from the parent
	// separators — so Open and OpenRepair refuse them with ErrVersion
	// and the caller rebuilds from source.
	headerVersion = 2
	// header layout: magic u32 | version u32 | pageSize u32 | pageCount u32 | freeHead u32
	headerSize = 20
)

// Errors returned by the storage manager.
var (
	ErrPageOutOfRange = errors.New("pagefile: page id out of range")
	ErrBadPageSize    = errors.New("pagefile: invalid page size")
	ErrClosed         = errors.New("pagefile: file is closed")
	ErrBadHeader      = errors.New("pagefile: bad or corrupt file header")
	// ErrVersion means the file is a valid paged file written by an
	// earlier page-format version. Neither Open nor OpenRepair can read
	// it; rebuild the store from its source document(s).
	ErrVersion = errors.New("pagefile: unsupported page-format version (file written by an older release; rebuild the store)")
	// ErrTornTail means the file is shorter than its header's page count —
	// a crash landed between the header write and the extending page write.
	// Open refuses such files; OpenRepair re-extends them so WAL redo can
	// rewrite whatever the tail was supposed to hold.
	ErrTornTail = errors.New("pagefile: file shorter than header page count (torn tail)")
)

// backend abstracts the byte store so File can run over an OS file or RAM.
type backend interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// memBackend is an in-memory backend used by NewMem.
type memBackend struct {
	mu  sync.RWMutex
	buf []byte
}

func (m *memBackend) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memBackend) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := off + int64(len(p))
	if n := int64(len(m.buf)); end > n {
		// Grow with amortised capacity, so building a store page by page
		// reallocates O(log n) times. The bytes past len may be a truncated
		// tail: zero them, as a file extension reads zeros.
		m.buf = slices.Grow(m.buf, int(end-n))[:end]
		clear(m.buf[n:end])
	}
	copy(m.buf[off:end], p)
	return len(p), nil
}

func (m *memBackend) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < int64(len(m.buf)) {
		m.buf = m.buf[:size]
	}
	return nil
}

func (m *memBackend) Sync() error  { return nil }
func (m *memBackend) Close() error { return nil }

// File is a paged file. Methods are safe for concurrent use; ReadPage and
// WritePage of distinct pages proceed in parallel (they take the mutex in
// read mode — both backends support concurrent page-granular I/O), while
// structural operations (Allocate, Free, Close) are exclusive.
type File struct {
	mu       sync.RWMutex
	b        backend
	pageSize int
	closed   bool

	// header state
	pageCount uint32 // pages allocated, including header page 0
	freeHead  PageID // head of the free-page list

	// stats fields are updated with atomic adds: page I/O runs under the
	// read lock, so concurrent readers would otherwise race on the
	// counters (the same non-atomic-sink pattern fixed in the buffer pool).
	stats metrics.Counters

	// tracer, when non-nil, receives one PageRead/PageWrite event per
	// physical page transfer, mirroring the stats counters exactly.
	// Implementations must be safe for concurrent use (obs.Collector is).
	tracer obs.Tracer

	// Scratch buffers reused across calls that hold f.mu exclusively
	// (writeHeader, Allocate, Free), so the structural paths stop
	// allocating per call. hdr carries the header page image (bytes past
	// headerSize stay zero); zeroPage stays all-zero and extends the file;
	// u32 carries free-list links.
	hdr      []byte
	zeroPage []byte
	u32      [4]byte

	// readBufs pools coalesced-run buffers for ReadPages; runs execute
	// under the read lock so concurrent readers need separate buffers.
	readBufs sync.Pool
}

// maxCoalesce bounds how many physically adjacent pages one ReadPages run
// merges into a single backend ReadAt, which also bounds the pooled run
// buffers at maxCoalesce×pageSize bytes.
const maxCoalesce = 16

// Options configures Create/Open.
type Options struct {
	// PageSize is the page size in bytes; DefaultPageSize if zero.
	PageSize int
}

func (o Options) pageSize() (int, error) {
	ps := o.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if ps < MinPageSize || ps&(ps-1) != 0 {
		return 0, fmt.Errorf("%w: %d (must be a power of two ≥ %d)", ErrBadPageSize, ps, MinPageSize)
	}
	return ps, nil
}

// Create creates a new paged file at path, truncating any existing file.
func Create(path string, opts Options) (*File, error) {
	ps, err := opts.pageSize()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: create %s: %w", path, err)
	}
	pf := &File{b: f, pageSize: ps, pageCount: 1, freeHead: InvalidPage}
	if err := pf.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

// Open opens an existing paged file created by Create. A file whose byte
// length is shorter than its header's page count fails with ErrTornTail;
// callers with a write-ahead log use OpenRepair instead and let redo
// reconstruct the tail.
func Open(path string) (*File, error) {
	return open(path, false)
}

// OpenRepair opens an existing paged file, re-extending a torn tail with
// zero pages. Only safe when the caller is about to replay a write-ahead
// log over the file: the zeroed tail pages are exactly the ones whose
// extending write was lost, and every committed image of them is in the
// log.
func OpenRepair(path string) (*File, error) {
	return open(path, true)
}

func open(path string, repair bool) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagefile: open %s: %w", path, err)
	}
	pf := &File{b: f}
	if err := pf.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagefile: stat %s: %w", path, err)
	}
	want := int64(pf.pageCount) * int64(pf.pageSize)
	if st.Size() < want {
		if !repair {
			f.Close()
			return nil, fmt.Errorf("%w: %s is %d bytes, header claims %d", ErrTornTail, path, st.Size(), want)
		}
		// Zero-extend to the claimed length; os.File.Truncate grows with
		// zeros. WAL redo overwrites any page that ever held committed data.
		if err := f.Truncate(want); err != nil {
			f.Close()
			return nil, fmt.Errorf("pagefile: repair %s: %w", path, err)
		}
	}
	return pf, nil
}

// NewMem creates an in-memory paged file. It never touches the filesystem
// but is otherwise identical to a disk-backed file, including I/O counting.
func NewMem(opts Options) *File {
	ps, err := opts.pageSize()
	if err != nil {
		// Options misuse is a programming error in this codebase.
		panic(err)
	}
	pf := &File{b: &memBackend{}, pageSize: ps, pageCount: 1, freeHead: InvalidPage}
	if err := pf.writeHeader(); err != nil {
		panic(err) // cannot fail for the memory backend
	}
	return pf
}

func (f *File) writeHeader() error {
	if f.hdr == nil {
		f.hdr = make([]byte, f.pageSize)
	}
	buf := f.hdr
	le.PutUint32(buf[0:], headerMagic)
	le.PutUint32(buf[4:], headerVersion)
	le.PutUint32(buf[8:], uint32(f.pageSize))
	le.PutUint32(buf[12:], f.pageCount)
	le.PutUint32(buf[16:], uint32(f.freeHead))
	if _, err := f.b.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("pagefile: write header: %w", err)
	}
	return nil
}

func (f *File) readHeader() error {
	var hdr [headerSize]byte
	buf := hdr[:]
	if _, err := io.ReadFull(readerAt{f.b, 0}, buf); err != nil {
		return fmt.Errorf("pagefile: read header: %w", err)
	}
	if le.Uint32(buf[0:]) != headerMagic {
		return ErrBadHeader
	}
	if v := le.Uint32(buf[4:]); v != headerVersion {
		if v > 0 && v < headerVersion {
			return fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, headerVersion)
		}
		return ErrBadHeader
	}
	ps := int(le.Uint32(buf[8:]))
	if ps < MinPageSize || ps&(ps-1) != 0 {
		return ErrBadHeader
	}
	f.pageSize = ps
	f.pageCount = le.Uint32(buf[12:])
	f.freeHead = PageID(le.Uint32(buf[16:]))
	if f.pageCount == 0 {
		return ErrBadHeader
	}
	return nil
}

// readerAt adapts a backend to io.Reader at a fixed offset.
type readerAt struct {
	b   backend
	off int64
}

func (r readerAt) Read(p []byte) (int, error) {
	n, err := r.b.ReadAt(p, r.off)
	return n, err
}

// PageSize returns the page size in bytes.
func (f *File) PageSize() int { return f.pageSize }

// NumPages returns the number of pages in the file including the header and
// any freed pages.
func (f *File) NumPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int(f.pageCount)
}

// Stats returns a snapshot of the physical I/O counters.
func (f *File) Stats() metrics.Counters {
	return metrics.Counters{
		PhysicalReads:  atomic.LoadInt64(&f.stats.PhysicalReads),
		PhysicalWrites: atomic.LoadInt64(&f.stats.PhysicalWrites),
		ReadCalls:      atomic.LoadInt64(&f.stats.ReadCalls),
	}
}

// ResetStats zeroes the physical I/O counters.
func (f *File) ResetStats() {
	atomic.StoreInt64(&f.stats.PhysicalReads, 0)
	atomic.StoreInt64(&f.stats.PhysicalWrites, 0)
	atomic.StoreInt64(&f.stats.ReadCalls, 0)
}

// SetTracer attaches tr to the file: every physical page read and write
// emits one obs.EvPageRead / obs.EvPageWrite event. Pass nil to detach.
func (f *File) SetTracer(tr obs.Tracer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracer = tr
}

// emit sends one event to the attached tracer; callers hold f.mu in at
// least read mode (which excludes SetTracer's write lock).
func (f *File) emit(kind obs.EventKind) {
	if f.tracer != nil {
		f.tracer.Event(kind, 1)
	}
}

// countRead records one physical page read; callers hold f.mu in at least
// read mode. Atomic because concurrent readers share the counter.
func (f *File) countRead() {
	atomic.AddInt64(&f.stats.PhysicalReads, 1)
	atomic.AddInt64(&f.stats.ReadCalls, 1)
	f.emit(obs.EvPageRead)
}

// countReadRun records one coalesced read call covering n pages; callers
// hold f.mu in at least read mode.
func (f *File) countReadRun(n int) {
	atomic.AddInt64(&f.stats.PhysicalReads, int64(n))
	atomic.AddInt64(&f.stats.ReadCalls, 1)
	if f.tracer != nil {
		f.tracer.Event(obs.EvPageRead, int64(n))
	}
}

// countWrite records one physical page write; callers hold f.mu in at
// least read mode.
func (f *File) countWrite() {
	atomic.AddInt64(&f.stats.PhysicalWrites, 1)
	f.emit(obs.EvPageWrite)
}

// Allocate returns a fresh page, reusing a freed page when available.
// The page contents are undefined; callers must fully initialize it.
func (f *File) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return InvalidPage, ErrClosed
	}
	if f.freeHead != InvalidPage {
		id := f.freeHead
		// The first 4 bytes of a free page hold the next free page.
		buf := f.u32[:]
		if _, err := f.b.ReadAt(buf, int64(id)*int64(f.pageSize)); err != nil {
			return InvalidPage, fmt.Errorf("pagefile: read free list: %w", err)
		}
		f.countRead()
		f.freeHead = PageID(le.Uint32(buf))
		return id, f.writeHeader()
	}
	id := PageID(f.pageCount)
	f.pageCount++
	// Extend the file so the page exists on disk.
	if f.zeroPage == nil {
		f.zeroPage = make([]byte, f.pageSize)
	}
	if _, err := f.b.WriteAt(f.zeroPage, int64(id)*int64(f.pageSize)); err != nil {
		f.pageCount--
		return InvalidPage, fmt.Errorf("pagefile: extend: %w", err)
	}
	f.countWrite()
	return id, f.writeHeader()
}

// Free returns a page to the free list. Freeing the header page or an
// out-of-range page is an error.
func (f *File) Free(id PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if id == InvalidPage || uint32(id) >= f.pageCount {
		return fmt.Errorf("%w: free %d of %d", ErrPageOutOfRange, id, f.pageCount)
	}
	buf := f.u32[:]
	le.PutUint32(buf, uint32(f.freeHead))
	if _, err := f.b.WriteAt(buf, int64(id)*int64(f.pageSize)); err != nil {
		return fmt.Errorf("pagefile: write free list: %w", err)
	}
	f.countWrite()
	f.freeHead = id
	return f.writeHeader()
}

// ReadPage reads page id into dst, which must be exactly PageSize bytes.
// Reads of distinct pages run concurrently.
func (f *File) ReadPage(id PageID, dst []byte) error {
	return f.ReadPageTo(id, dst, nil)
}

// ReadPageTo is ReadPage with per-call read attribution: when tr is
// non-nil the EvPageRead event goes to tr INSTEAD of the file-attached
// tracer (either/or, so a read is never double-counted), which is how a
// request's trace span is charged for exactly the physical reads its miss
// path caused even while other requests hammer the same file. The
// process-wide stats counters are updated either way.
func (f *File) ReadPageTo(id PageID, dst []byte, tr obs.Tracer) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.readLocked(id, dst); err != nil {
		return err
	}
	atomic.AddInt64(&f.stats.PhysicalReads, 1)
	atomic.AddInt64(&f.stats.ReadCalls, 1)
	if tr != nil {
		tr.Event(obs.EvPageRead, 1)
	} else {
		f.emit(obs.EvPageRead)
	}
	return nil
}

// readLocked reads page id into dst, uncounted; the caller holds f.mu in
// at least read mode.
func (f *File) readLocked(id PageID, dst []byte) error {
	if len(dst) != f.pageSize {
		return fmt.Errorf("pagefile: ReadPage buffer is %d bytes, want %d", len(dst), f.pageSize)
	}
	if f.closed {
		return ErrClosed
	}
	if id == InvalidPage || uint32(id) >= f.pageCount {
		return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, f.pageCount)
	}
	if _, err := f.b.ReadAt(dst, int64(id)*int64(f.pageSize)); err != nil {
		return fmt.Errorf("pagefile: read page %d: %w", id, err)
	}
	return nil
}

// ReadPages reads len(ids) pages, ids[i] into dsts[i], sorting the batch
// and coalescing physically adjacent pages into single backend ReadAt
// calls (at most maxCoalesce pages per call). It reorders ids and dsts in
// tandem in place, so callers must own both slices. Each dst must be
// exactly PageSize bytes. Reads of distinct batches run concurrently.
// Its only caller is bench/xrperf's pagefile.readv_ns_per_page probe.
func (f *File) ReadPages(ids []PageID, dsts [][]byte) error {
	if len(ids) != len(dsts) {
		return fmt.Errorf("pagefile: ReadPages got %d ids and %d buffers", len(ids), len(dsts))
	}
	for _, dst := range dsts {
		if len(dst) != f.pageSize {
			return fmt.Errorf("pagefile: ReadPages buffer is %d bytes, want %d", len(dst), f.pageSize)
		}
	}
	// Insertion sort by page id, moving the buffers in tandem. Batches are
	// small, so this beats sort.Slice and allocates nothing.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
			dsts[j], dsts[j-1] = dsts[j-1], dsts[j]
		}
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	for _, id := range ids {
		if id == InvalidPage || uint32(id) >= f.pageCount {
			return fmt.Errorf("%w: read %d of %d", ErrPageOutOfRange, id, f.pageCount)
		}
	}
	for i := 0; i < len(ids); {
		// Find the adjacent run starting at i.
		n := 1
		for i+n < len(ids) && n < maxCoalesce && ids[i+n] == ids[i]+PageID(n) {
			n++
		}
		if n == 1 {
			if _, err := f.b.ReadAt(dsts[i], int64(ids[i])*int64(f.pageSize)); err != nil {
				return fmt.Errorf("pagefile: read page %d: %w", ids[i], err)
			}
			f.countRead()
		} else {
			buf, _ := f.readBufs.Get().([]byte)
			if buf == nil {
				buf = make([]byte, maxCoalesce*f.pageSize)
			}
			if _, err := f.b.ReadAt(buf[:n*f.pageSize], int64(ids[i])*int64(f.pageSize)); err != nil {
				f.readBufs.Put(buf)
				return fmt.Errorf("pagefile: read pages %d..%d: %w", ids[i], ids[i+n-1], err)
			}
			for k := 0; k < n; k++ {
				copy(dsts[i+k], buf[k*f.pageSize:(k+1)*f.pageSize])
			}
			f.readBufs.Put(buf)
			f.countReadRun(n)
		}
		i += n
	}
	return nil
}

// WritePage writes src (exactly PageSize bytes) to page id. Writes of
// distinct pages run concurrently; concurrent writes to the same page are
// the caller's race, exactly as with a kernel pwrite.
func (f *File) WritePage(id PageID, src []byte) error {
	if len(src) != f.pageSize {
		return fmt.Errorf("pagefile: WritePage buffer is %d bytes, want %d", len(src), f.pageSize)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if id == InvalidPage || uint32(id) >= f.pageCount {
		return fmt.Errorf("%w: write %d of %d", ErrPageOutOfRange, id, f.pageCount)
	}
	if _, err := f.b.WriteAt(src, int64(id)*int64(f.pageSize)); err != nil {
		return fmt.Errorf("pagefile: write page %d: %w", id, err)
	}
	f.countWrite()
	return nil
}

// ApplyPage writes a recovered page image, extending the file when id
// lies past the current page count (the crash lost the extending write
// but the image was committed). It implements the WAL recovery applier.
func (f *File) ApplyPage(id PageID, data []byte) error {
	if len(data) != f.pageSize {
		return fmt.Errorf("pagefile: ApplyPage image is %d bytes, want %d", len(data), f.pageSize)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if id == InvalidPage {
		return fmt.Errorf("%w: apply %d", ErrPageOutOfRange, id)
	}
	if _, err := f.b.WriteAt(data, int64(id)*int64(f.pageSize)); err != nil {
		return fmt.Errorf("pagefile: apply page %d: %w", id, err)
	}
	f.countWrite()
	if uint32(id) >= f.pageCount {
		f.pageCount = uint32(id) + 1
		return f.writeHeader()
	}
	return nil
}

// ResetFreeList empties the free-page list. Recovery calls this after a
// non-clean shutdown: the free list is threaded through unlogged link
// writes, so after a crash its links cannot be trusted. The freed pages
// leak (bounded by what was freed since the last clean shutdown), which
// beats handing the allocator a corrupt link.
func (f *File) ResetFreeList() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.freeHead == InvalidPage {
		return nil
	}
	f.freeHead = InvalidPage
	return f.writeHeader()
}

// Abandon closes the backend without flushing — the crash harness's way
// of dropping a store on the floor mid-run.
func (f *File) Abandon() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	f.b.Close()
}

// Sync flushes the backend to stable storage.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return f.b.Sync()
}

// Close flushes the header and closes the backend. Further operations fail
// with ErrClosed.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if err := f.b.Sync(); err != nil {
		f.b.Close()
		return err
	}
	return f.b.Close()
}
