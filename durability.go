package xrtree

// Durability and crash recovery for file-backed stores (DESIGN.md
// "Durability & recovery"). With StoreOptions.WAL set, every XR-tree and
// B+-tree Insert/Delete runs as a logged transaction with group commit,
// and OpenStore redoes the log before serving: a crash at any instant
// loses at most the transactions whose commit records never reached disk,
// never a fraction of one. Bulk builds stay unlogged; their durability
// point is SaveSet, which flushes, fsyncs, and checkpoints.

import (
	"errors"
	"fmt"

	"xrtree/internal/pagefile"
	"xrtree/internal/wal"
)

// WALFS is the filesystem the write-ahead log writes through. The default
// (nil) is the OS; the crash-injection harness substitutes an
// implementation that fails after a chosen number of bytes.
type WALFS = wal.FS

// WALStats is a snapshot of the write-ahead log's counters. Fsyncs <
// Commits under concurrent writers is the observable signature of group
// commit.
type WALStats = wal.Stats

// RecoveryReport describes what the recovery pass of a WAL-enabled
// OpenStore found and did.
type RecoveryReport = wal.Report

// ErrRecoveryNeeded is returned by OpenStore when the store needs crash
// recovery it was not asked to run: the page file has a torn tail, or a
// write-ahead log exists beside it, and StoreOptions.WAL is off. Reopen
// with WAL enabled to recover.
var ErrRecoveryNeeded = errors.New("xrtree: store needs crash recovery (reopen with StoreOptions.WAL)")

// walDir returns the log directory for the store at path.
func walDir(path string, opts StoreOptions) string {
	if opts.WALDir != "" {
		return opts.WALDir
	}
	return path + ".wal"
}

func (opts StoreOptions) walOptions() wal.Options {
	return wal.Options{FS: opts.WALFS, SegmentBytes: opts.WALSegmentBytes}
}

// hasWAL reports whether a log directory with segments exists for path.
func hasWAL(path string, opts StoreOptions) bool {
	ok, err := wal.HasSegments(opts.WALFS, walDir(path, opts))
	return err == nil && ok
}

// startWAL begins a fresh log incarnation at LSN next and attaches it to
// the pool. Pre-existing segments have been replayed (or the store is
// brand new) and are deleted.
func (s *Store) startWAL(path string, opts StoreOptions, next uint64) error {
	l, err := wal.Start(walDir(path, opts), s.file.PageSize(), next, opts.walOptions())
	if err != nil {
		return err
	}
	s.wal = l
	s.pool.SetWAL(l, opts.WALCheckpointBytes)
	return nil
}

// openStoreWAL is OpenStore for a WAL-enabled store: repair the page
// file's physical tail, redo every committed transaction from the log,
// and start a fresh log incarnation where the old one ended.
func openStoreWAL(path string, opts StoreOptions) (*Store, error) {
	file, err := pagefile.OpenRepair(path)
	if err != nil {
		return nil, err
	}
	rep, err := wal.Replay(opts.WALFS, walDir(path, opts), file.PageSize(), file)
	if err != nil {
		file.Abandon()
		return nil, fmt.Errorf("xrtree: recovery: %w", err)
	}
	if rep.Replayed() {
		// The shutdown was not provably clean: free-list links are written
		// outside the log, so the list may thread through pages whose
		// writes never became durable. Rebuild it empty — a bounded page
		// leak instead of a corrupt allocator.
		if err := file.ResetFreeList(); err != nil {
			file.Abandon()
			return nil, err
		}
	}
	// Make the redone images durable before Start deletes the segments
	// that carry them.
	if err := file.Sync(); err != nil {
		file.Abandon()
		return nil, err
	}
	s, err := newStore(file, opts)
	if err != nil {
		return nil, err
	}
	if err := s.startWAL(path, opts, rep.NextLSN); err != nil {
		s.Close()
		return nil, fmt.Errorf("xrtree: start log: %w", err)
	}
	s.recovery = &rep
	return s, nil
}

// Abandon drops the store without flushing anything: dirty buffered pages
// and the log's unsynced tail are simply lost, as in a crash. The crash
// harness uses it where a real deployment would lose power.
func (s *Store) Abandon() {
	if s.wal != nil {
		s.wal.Abandon()
	}
	s.file.Abandon()
}

// Recovery returns the report of the recovery pass OpenStore ran, or nil
// for stores that did not open through one (created fresh, or no WAL).
func (s *Store) Recovery() *RecoveryReport { return s.recovery }

// WALStats returns the write-ahead log's counters; ok is false when the
// store runs without a log.
func (s *Store) WALStats() (st WALStats, ok bool) {
	if s.wal == nil {
		return WALStats{}, false
	}
	return s.wal.Stats(), true
}

// Checkpoint forces a checkpoint: flush the pool, fsync the page file,
// and prune log segments the page file no longer needs. It waits for
// in-flight commits and bulk builds to drain. No-op without a WAL.
func (s *Store) Checkpoint() error { return s.pool.CheckpointWait() }

// syncDurable is SaveSet's durability point. With a log attached it must
// be a full checkpoint: the checkpoint record is the barrier that stops
// older logged images from replaying over pages the just-saved bulk
// build reused.
func (s *Store) syncDurable() error {
	if s.pool.WAL() != nil {
		return s.pool.CheckpointWait()
	}
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	return s.file.Sync()
}
