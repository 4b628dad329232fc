package bufferpool

import (
	"fmt"

	"xrtree/internal/pagefile"
	"xrtree/internal/wal"
)

// This file is the pool's side of the write-ahead-log protocol (see
// package wal for the log itself and the package comment there for the
// full picture).
//
// A mutation runs as a transaction: every page it touches is fetched
// "held" (FetchHeld / FetchNewHeld), which marks the frame no-steal — it
// stays off the LRU list and is skipped by every write-back path
// until CommitTx has appended its after-image to the log and the
// group-commit flusher has fsynced past the commit record. Only the
// mutation's owner touches its held frames (the index latching protocol
// serializes writers per tree), so commit can snapshot their bytes
// without copying.
//
// Page frees inside a transaction are deferred to after commit
// (DiscardTx): the free list is threaded through unlogged writes, so
// freeing before the commit is durable could hand the page to another
// allocation whose crash-recovered state would then be wrong.
//
// Bulk builds (tree construction) bypass the log entirely — their
// durability point is the store's explicit save, which flushes, fsyncs,
// and checkpoints. BeginUnlogged/EndUnlogged bracket them so a
// concurrent fuzzy checkpoint never reads a half-built frame.

// DefaultCheckpointBytes is the default fuzzy-checkpoint trigger: a
// checkpoint is written once this many log bytes accumulate.
const DefaultCheckpointBytes = 4 << 20

// Tx is one in-flight transaction. It is owned by a single goroutine
// (the mutation holds its tree's exclusive latch) and is not safe for
// concurrent use.
type Tx struct {
	pages []pagefile.PageID // held pages, in first-touch order
	seen  map[pagefile.PageID]struct{}
	frees []pagefile.PageID // frees deferred to after commit
}

// SetWAL attaches the write-ahead log to the pool. ckptBytes is the
// fuzzy-checkpoint trigger (DefaultCheckpointBytes when ≤ 0). Attach
// before the pool sees concurrent transactions.
func (p *Pool) SetWAL(l *wal.Log, ckptBytes int64) {
	if ckptBytes <= 0 {
		ckptBytes = DefaultCheckpointBytes
	}
	p.ckptBytes = ckptBytes
	p.wal.Store(l)
}

// WAL returns the attached log, or nil.
func (p *Pool) WAL() *wal.Log { return p.wal.Load() }

// Begin starts a transaction. It returns nil when the pool has no log
// attached; every Tx-taking method accepts a nil Tx and degrades to the
// plain unlogged call, so callers thread the Tx through unconditionally.
func (p *Pool) Begin() *Tx {
	if p.wal.Load() == nil {
		return nil
	}
	return &Tx{seen: make(map[pagefile.PageID]struct{}, 8)}
}

// hold marks frame f as belonging to tx. Caller holds the shard mutex.
func (tx *Tx) hold(s *shard, f *frame) {
	if _, ok := tx.seen[f.id]; ok {
		return
	}
	tx.seen[f.id] = struct{}{}
	tx.pages = append(tx.pages, f.id)
	f.held = true
	// A held frame must not sit on the LRU list: it would become an
	// eviction victim, and eviction writes frames back.
	s.listRemove(f)
}

// FetchHeld is Fetch within a transaction: the frame is pinned and marked
// held until the transaction commits. With tx == nil it is plain Fetch.
// Every page a transaction might dirty must come through a held fetch: an
// unheld dirty frame is both invisible to the commit's snapshot (its image
// never reaches the log) and stealable by eviction before the commit is
// durable.
func (p *Pool) FetchHeld(tx *Tx, id pagefile.PageID) ([]byte, error) {
	if tx == nil {
		return p.Fetch(id)
	}
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := p.fetchLocked(s, id, nil)
	if err != nil {
		return nil, err
	}
	tx.hold(s, f)
	s.pinLocked(f)
	p.debugPinned(1)
	return f.data, nil
}

// FetchNewHeld is FetchNew within a transaction. With tx == nil it is
// plain FetchNew.
func (p *Pool) FetchNewHeld(tx *Tx) (pagefile.PageID, []byte, error) {
	id, data, err := p.FetchNew()
	if err != nil || tx == nil {
		return id, data, err
	}
	s := p.shardFor(id)
	s.mu.Lock()
	tx.hold(s, s.frames[id])
	s.mu.Unlock()
	return id, data, nil
}

// UnpinTx is Unpin within a transaction. The frame stays held (and off
// the LRU list) until commit. Unpin itself is transaction-aware, so this
// is a plain alias, kept because bench/xrperf calls it.
func (p *Pool) UnpinTx(tx *Tx, id pagefile.PageID, dirty bool) error {
	return p.Unpin(id, dirty)
}

// DiscardTx drops page id from the pool without write-back and defers
// freeing it in the file until the transaction commits. The page must be
// pinned exactly once by the caller. With tx == nil it is plain Discard.
func (p *Pool) DiscardTx(tx *Tx, id pagefile.PageID) error {
	if tx == nil {
		return p.Discard(id)
	}
	s := p.shardFor(id)
	s.mu.Lock()
	f, ok := s.frames[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: page %d", ErrBadUnpin, id)
	}
	if f.pins != 1 {
		s.mu.Unlock()
		return fmt.Errorf("bufferpool: discard of page %d with %d pins", id, f.pins)
	}
	f.held = false
	delete(s.frames, id)
	p.debugPinned(-1)
	s.mu.Unlock()
	tx.frees = append(tx.frees, id)
	return nil
}

// FreeTx drops any resident frame for page id (which must be unpinned)
// without write-back and frees the page in the file — immediately outside
// a transaction, or deferred to after commit inside one. Used for pages
// that go dead without being pinned at the time (e.g. the old root when
// the tree shrinks).
func (p *Pool) FreeTx(tx *Tx, id pagefile.PageID) error {
	s := p.shardFor(id)
	s.mu.Lock()
	if f, ok := s.frames[id]; ok {
		if f.pins != 0 {
			s.mu.Unlock()
			return fmt.Errorf("bufferpool: free of pinned page %d", id)
		}
		s.listRemove(f)
		f.held = false
		delete(s.frames, id)
	}
	s.mu.Unlock()
	if tx == nil {
		return p.file.Free(id)
	}
	tx.frees = append(tx.frees, id)
	return nil
}

// CommitTx makes the transaction durable: the after-images of every page
// it dirtied are appended to the log together with a commit record, the
// committer waits for the group-commit fsync, and only then are the
// frames released for ordinary lazy write-back and the deferred page
// frees applied. A nil Tx is a no-op. Commit errors leave the frames
// released but still dirty; the log is dead at that point (its errors
// are sticky), so nothing can write them back out of order.
func (p *Pool) CommitTx(tx *Tx) error {
	if tx == nil {
		return nil
	}
	l := p.wal.Load()
	// The commit — log append through frame release — runs under the
	// checkpoint gate in read mode. A checkpoint asserts that every
	// committed image below its record is durably in the page file; by
	// excluding half-released commits (log record written, frames still
	// held and so skipped by the checkpoint's flush) the assertion is
	// exact. Commits and unlogged bulk builds share the gate's read side
	// and never block each other.
	p.ckptGate.RLock()
	// Snapshot the dirty held frames. No copy: held frames cannot be
	// evicted, and only this transaction's owner writes their bytes.
	images := make([]wal.PageImage, 0, len(tx.pages))
	for _, id := range tx.pages {
		s := p.shardFor(id)
		s.mu.Lock()
		f, ok := s.frames[id]
		if ok && f.held && f.dirty {
			images = append(images, wal.PageImage{ID: id, Data: f.data})
		}
		s.mu.Unlock()
	}
	lsn, cerr := l.Commit(images)
	// Release the frames whether or not the commit stuck: a dead log makes
	// every later flushLocked fail closed, and leaving frames held forever
	// would wedge the pool.
	for _, id := range tx.pages {
		s := p.shardFor(id)
		s.mu.Lock()
		f, ok := s.frames[id]
		if ok && f.held {
			f.held = false
			if cerr == nil && f.dirty {
				f.lsn = lsn
			}
			if f.pins == 0 {
				s.releaseLocked(f)
			}
		}
		s.mu.Unlock()
	}
	p.ckptGate.RUnlock()
	if cerr != nil {
		return cerr
	}
	for _, id := range tx.frees {
		if err := p.file.Free(id); err != nil {
			return err
		}
	}
	if l.SinceCheckpoint() >= p.ckptBytes {
		return p.Checkpoint()
	}
	return nil
}

// BeginUnlogged brackets an unlogged bulk write (tree construction):
// while any unlogged writer is active, fuzzy checkpoints are skipped, so
// a checkpoint's flush never reads a frame the builder is mutating.
// Pair with EndUnlogged.
func (p *Pool) BeginUnlogged() { p.ckptGate.RLock() }

// EndUnlogged ends an unlogged bulk write begun with BeginUnlogged.
func (p *Pool) EndUnlogged() { p.ckptGate.RUnlock() }

// Checkpoint writes a fuzzy checkpoint: flush every unheld dirty frame,
// fsync the page file, append a checkpoint record (which prunes dead log
// segments). Skipped — successfully — when an unlogged bulk build is in
// progress or another checkpoint is already running; the next trigger
// retries. No-op without an attached log.
func (p *Pool) Checkpoint() error {
	l := p.wal.Load()
	if l == nil {
		return nil
	}
	if !p.ckptGate.TryLock() {
		return nil
	}
	defer p.ckptGate.Unlock()
	return p.checkpointLocked(l)
}

// CheckpointWait is Checkpoint, but it waits for in-flight commits and
// unlogged bulk builds to drain instead of skipping. The store's save path
// uses it: the checkpoint is the barrier that stops older logged images
// from replaying over pages a bulk build reused, so the save must not
// proceed without one.
func (p *Pool) CheckpointWait() error {
	l := p.wal.Load()
	if l == nil {
		return nil
	}
	p.ckptGate.Lock()
	defer p.ckptGate.Unlock()
	return p.checkpointLocked(l)
}

func (p *Pool) checkpointLocked(l *wal.Log) error {
	if err := p.FlushAll(); err != nil {
		return err
	}
	if err := p.file.Sync(); err != nil {
		return err
	}
	return l.Checkpoint()
}
