// Package wal implements the write-ahead log beneath the paged store: a
// segmented append-only log of physical redo records with group commit and
// ARIES-style redo-only recovery.
//
// # Protocol
//
// Every index mutation (one XR-tree or B+-tree Insert/Delete) runs as one
// transaction. The mutation dirties pages in the buffer pool as before,
// but the pool holds those frames back from write-back ("no steal"); at
// commit the full after-images of every dirtied page are appended to the
// log, followed by a commit record, and the committer parks until the
// group-commit flusher has fsynced past its commit LSN. Only then are the
// frames released for ordinary lazy write-back — so a page never reaches
// the page file before the log records that recreate it are durable (the
// WAL rule), and a torn or un-fsynced log tail can only lose whole
// transactions, never tear one.
//
// Because the records are full page images, redo is idempotent and needs
// no persistent per-page LSN: recovery replays every committed
// transaction's images in log order and the final state is exactly the
// newest committed image of each page. Records of transactions with no
// commit record — the crash caught them mid-append — are discarded.
//
// # Segments
//
// The log is a chain of segment files, each named by the LSN of its first
// record. A segment is created at full size: its header, then zeros up to
// SegmentBytes past the header, fsynced once before the first commit
// lands in it. Commits then overwrite the zeros in place, so the fsync
// that acknowledges a commit flushes data blocks only — a file that grew
// would also have to commit the filesystem's journal entry for its new
// size and extents, which costs more than the data itself. The records of
// a segment end at its first all-zero record header (the untouched fill)
// or at the end of the file, and the next segment begins at the LSN where
// they end; a commit that crosses SegmentBytes extends the file, and the
// next commit rotates to a new segment.
//
// # Group commit
//
// Appends happen under the log mutex and go straight to the OS (buffered);
// the expensive fsync is delegated to a single flusher goroutine. A
// committer signals the flusher and waits until the flushed LSN covers its
// commit record; every commit that arrives while an fsync is in flight is
// covered by the next one, so N concurrent writers cost far fewer than N
// fsyncs. The Stats expose the ratio.
//
// # Checkpoints
//
// A checkpoint (written after the buffer pool has flushed and the page
// file has fsynced) records that every lower-LSN image is durably in the
// page file; segments wholly below it are deleted. A clean-shutdown record
// additionally marks the page file's free list as trustworthy — recovery
// after anything else rebuilds it empty, trading a bounded page leak for
// never handing a corrupt free-list link to the allocator.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// DefaultSegmentBytes is the segment rotation threshold.
const DefaultSegmentBytes = 1 << 20

// Options configures Start.
type Options struct {
	// FS is the filesystem the log writes through; OSFS when nil. The
	// crash-injection harness substitutes a failing wrapper here.
	FS FS
	// SegmentBytes is the record bytes a segment is created to hold (its
	// zero fill past the header); the log rotates once a segment's records
	// reach it. DefaultSegmentBytes when 0.
	SegmentBytes int64
}

// Stats is a snapshot of the log's counters. Fsyncs < Commits under
// concurrent writers is the observable signature of group commit.
type Stats struct {
	Commits     int64 `json:"commits"`     // transactions committed
	Fsyncs      int64 `json:"fsyncs"`      // fsync calls issued by the flusher
	MaxGroup    int64 `json:"max_group"`   // most commits acked by one fsync
	Bytes       int64 `json:"bytes"`       // record bytes appended
	PageImages  int64 `json:"page_images"` // page-image records appended
	Checkpoints int64 `json:"checkpoints"` // checkpoint records written
	Segments    int64 `json:"segments"`    // segments created
	Truncated   int64 `json:"truncated"`   // segments deleted by checkpoints
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	fs       FS
	dir      string
	pageSize int
	segBytes int64

	mu         sync.Mutex
	cond       *sync.Cond // flushedLSN advanced or err set
	cur        File
	curBase    uint64
	curSize    int64 // record bytes in the current segment (past the header)
	nextLSN    uint64
	flushedLSN uint64
	waiters    int64 // commits appended but not yet covered by an fsync
	nextTx     uint64
	sinceCkpt  int64 // record bytes since the last checkpoint
	err        error // sticky: the log is dead once a write or fsync fails
	closed     bool

	// buf and payload are Commit's scratch: the serialized records of one
	// transaction and one page record's payload, reused across commits.
	buf     []byte
	payload []byte

	segs []uint64 // base LSNs of live segments, ascending; last is cur

	wake chan struct{}
	done chan struct{}

	stats Stats
}

// Start opens a fresh log in dir, beginning a new segment at base LSN
// next. Pre-existing segments are the previous incarnation's; the caller
// replays them first (see Replay) and Start deletes them once the new
// segment exists, because replay already made their effects durable.
func Start(dir string, pageSize int, next uint64, opts Options) (*Log, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	old, err := listSegments(fs, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		fs:       fs,
		dir:      dir,
		pageSize: pageSize,
		segBytes: segBytes,
		nextLSN:  next,
		payload:  make([]byte, 4+pageSize),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	l.flushedLSN = next
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	// The new segment is durable; drop the replayed predecessors.
	for _, base := range old {
		if base != l.curBase {
			if err := fs.Remove(filepath.Join(dir, segmentName(base))); err != nil {
				l.cur.Close()
				return nil, fmt.Errorf("wal: remove replayed segment: %w", err)
			}
		}
	}
	go l.flusher()
	return l, nil
}

// listSegments returns the base LSNs of the segments in dir, ascending.
func listSegments(fs FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var bases []uint64
	for _, n := range names {
		if base, ok := parseSegmentName(n); ok {
			bases = append(bases, base)
		}
	}
	for i := 1; i < len(bases); i++ {
		for j := i; j > 0 && bases[j] < bases[j-1]; j-- {
			bases[j], bases[j-1] = bases[j-1], bases[j]
		}
	}
	return bases, nil
}

// HasSegments reports whether dir holds any log segments — the mark of a
// store that was last run with a log and must be opened with one.
func HasSegments(fsys FS, dir string) (bool, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	bases, err := listSegments(fsys, dir)
	return len(bases) > 0, err
}

// openSegmentLocked creates the segment whose base is l.nextLSN at full
// size — its header, then segBytes of zeros — fsyncs it, and makes it
// current. Caller holds l.mu (or is Start).
func (l *Log) openSegmentLocked() error {
	name := filepath.Join(l.dir, segmentName(l.nextLSN))
	f, err := l.fs.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := fillSegment(f, encodeSegmentHeader(l.pageSize, l.nextLSN), segHeader+l.segBytes); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync new segment: %w", err)
	}
	l.cur = f
	l.curBase = l.nextLSN
	l.curSize = 0
	l.segs = append(l.segs, l.curBase)
	l.stats.Segments++
	return nil
}

// zeros is the fill of a new segment, written a chunk at a time.
var zeros [64 << 10]byte

// fillSegment writes a new segment's header and then zeros up to size.
func fillSegment(f File, hdr []byte, size int64) error {
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	for off := int64(len(hdr)); off < size; {
		n := min(size-off, int64(len(zeros)))
		if _, err := f.WriteAt(zeros[:n], off); err != nil {
			return fmt.Errorf("wal: fill segment: %w", err)
		}
		off += n
	}
	return nil
}

// appendLocked writes raw record bytes over the current segment's fill at
// its end of records and advances nextLSN. Caller holds l.mu and has
// checked l.err/l.closed.
func (l *Log) appendLocked(buf []byte) error {
	if _, err := l.cur.WriteAt(buf, segHeader+l.curSize); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		l.cond.Broadcast()
		return l.err
	}
	l.nextLSN += uint64(len(buf))
	l.curSize += int64(len(buf))
	l.sinceCkpt += int64(len(buf))
	l.stats.Bytes += int64(len(buf))
	return nil
}

// rotateLocked flushes the current segment to its end, then starts the
// next one. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	target := l.nextLSN
	l.kick()
	for l.flushedLSN < target && l.err == nil {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if err := l.cur.Close(); err != nil {
		l.err = fmt.Errorf("wal: close segment: %w", err)
		return l.err
	}
	return l.openSegmentLocked()
}

// kick signals the flusher without blocking.
func (l *Log) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// flusher is the single group-commit goroutine: each pass fsyncs the
// current segment and acknowledges every commit appended before the sync
// began. Commits arriving during an fsync are covered by the next pass.
func (l *Log) flusher() {
	for {
		select {
		case <-l.done:
			return
		case <-l.wake:
		}
		l.mu.Lock()
		if l.err != nil || l.flushedLSN >= l.nextLSN {
			l.mu.Unlock()
			continue
		}
		target := l.nextLSN
		group := l.waiters
		l.waiters = 0
		f := l.cur
		l.mu.Unlock()

		err := f.Sync()

		l.mu.Lock()
		if err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
		} else {
			l.stats.Fsyncs++
			if group > l.stats.MaxGroup {
				l.stats.MaxGroup = group
			}
			if target > l.flushedLSN {
				l.flushedLSN = target
			}
		}
		l.cond.Broadcast()
		more := l.err == nil && l.flushedLSN < l.nextLSN
		l.mu.Unlock()
		if more {
			l.kick()
		}
	}
}

// Commit appends the transaction's page images and a commit record, then
// blocks until the flusher has made them durable. It returns the commit
// record's end LSN. Commit is the only append path writers use, so a
// transaction's records are always contiguous in the log.
func (l *Log) Commit(images []PageImage) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if l.curSize >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	txid := l.nextTx
	l.nextTx++
	buf := l.buf[:0]
	for _, im := range images {
		if len(im.Data) != l.pageSize {
			l.mu.Unlock()
			return 0, fmt.Errorf("wal: page image is %d bytes, want %d", len(im.Data), l.pageSize)
		}
		le.PutUint32(l.payload, uint32(im.ID))
		copy(l.payload[4:], im.Data)
		buf = appendRecord(buf, recPage, txid, l.payload)
	}
	buf = appendRecord(buf, recCommit, txid, nil)
	l.buf = buf
	if err := l.appendLocked(buf); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.nextLSN
	l.stats.PageImages += int64(len(images))
	l.stats.Commits++
	l.waiters++
	l.kick()
	for l.flushedLSN < lsn && l.err == nil {
		l.cond.Wait()
	}
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// FlushTo blocks until the flushed LSN reaches lsn — the WAL-before-page
// rule's wait, called by the buffer pool before writing back a page whose
// newest image sits at lsn. Commits are synchronous, so in practice this
// returns immediately; it exists so the rule survives future asynchronous
// commit modes.
func (l *Log) FlushTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flushedLSN >= lsn {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	l.kick()
	for l.flushedLSN < lsn && l.err == nil {
		l.cond.Wait()
	}
	return l.err
}

// SinceCheckpoint returns the record bytes appended since the last
// checkpoint — the buffer pool's trigger for writing the next one.
func (l *Log) SinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

// Checkpoint appends a checkpoint record, flushes it, and deletes every
// segment wholly below it. The caller must already have flushed the
// buffer pool and fsynced the page file: the record asserts that every
// lower-LSN committed image is durable there.
func (l *Log) Checkpoint() error {
	return l.barrier(recCheckpoint)
}

// CloseClean writes a clean-shutdown record, flushes, and closes the log.
// Recovery that finds the record as the last in the log trusts the page
// file's free list.
func (l *Log) CloseClean() error {
	if err := l.barrier(recClean); err != nil {
		l.stop()
		return err
	}
	l.stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.cur.Close()
}

// Abandon closes the log without flushing anything — the crash harness's
// way of dropping a store on the floor.
func (l *Log) Abandon() {
	l.stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		l.cur.Close()
	}
}

func (l *Log) stop() {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
}

// barrier appends a marker record (checkpoint or clean shutdown), waits
// for it to be durable, and prunes dead segments.
func (l *Log) barrier(typ byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.curSize >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	markLSN := l.nextLSN // records strictly below this are covered
	if err := l.appendLocked(appendRecord(nil, typ, 0, nil)); err != nil {
		return err
	}
	target := l.nextLSN
	l.kick()
	for l.flushedLSN < target && l.err == nil {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if typ == recCheckpoint {
		l.stats.Checkpoints++
		l.sinceCkpt = 0
	}
	// Delete segments that end at or below the marker: segment i spans
	// [segs[i], segs[i+1]), and the current segment is never deleted.
	live := l.segs[:0]
	for i, base := range l.segs {
		end := markLSN
		if i+1 < len(l.segs) {
			end = l.segs[i+1]
		}
		if base != l.curBase && end <= markLSN {
			if err := l.fs.Remove(filepath.Join(l.dir, segmentName(base))); err != nil {
				// Non-fatal: the segment replays idempotently next open.
				live = append(live, base)
				continue
			}
			l.stats.Truncated++
			continue
		}
		live = append(live, base)
	}
	l.segs = live
	return nil
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }
