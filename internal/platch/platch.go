// Package platch provides per-page latches: short-term reader/writer
// locks addressed by page id, the concurrency primitive behind the B-link
// protocol in btree and core (see DESIGN.md "Index latching").
//
// A Table is a dense array of RWMutexes indexed by page id, cut into
// chunks of chunkSize latches that are allocated the first time a page in
// their range is latched. The chunk directory sits behind an atomic
// pointer and grows copy-on-write under a mutex, so acquiring a latch is
// one directory load plus the RWMutex operation: no map, no refcount, no
// shared mutex on the hot path. Chunks never move once allocated, so a
// latch handed out stays valid while the directory grows. A tree whose
// pages are few (the serving layer's many small documents) pays a chunk
// or two of a few KiB each; a directory slot of an id range never latched
// stays nil. Ids past the dense range (16 GiB of 4 KiB pages; a corrupt
// link can name one) get their latches from a map instead, so one wild id
// cannot grow the directory to megabytes.
//
// Every page has its own latch — no two ids share one, as they would
// under hashing onto a fixed stripe array, where a writer coupling "latch
// right sibling while holding the left" self-deadlocks when both map to
// the same stripe. The B-link ordering rules (top-to-bottom,
// left-to-right, never left-or-parent while holding right-or-child) are
// therefore the only deadlock-freedom requirements.
//
// Lock ordering: page latches sit between the WAL checkpoint gate and the
// buffer-pool shard mutexes (level 3 of the latchorder analyzer). Within
// the level, acquiring a second page latch while holding one must go
// through LockRight, which documents — and lets the analyzer verify —
// that the second page is to the right of (or below) every held one.
package platch

import (
	"sync"
	"sync/atomic"

	"xrtree/internal/pagefile"
)

// chunkBits sizes a chunk at 256 latches (6 KiB of RWMutexes); maxChunks
// bounds the directory at 128 KiB, the dense range at 2^22 ids.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	maxChunks = 1 << 14
)

type chunk [chunkSize]sync.RWMutex

// Table is a set of per-page latches. The zero value is not ready; use
// NewTable.
type Table struct {
	dir  atomic.Pointer[[]*chunk] // chunk i holds the latches of ids [i·chunkSize, (i+1)·chunkSize)
	grow sync.Mutex               // serializes directory copies
	far  sync.Map                 // id → *sync.RWMutex for ids past the dense range
}

// NewTable returns an empty latch table.
func NewTable() *Table {
	t := &Table{}
	t.dir.Store(new([]*chunk))
	return t
}

// latch returns id's RWMutex: the hot path, one directory load.
func (t *Table) latch(id pagefile.PageID) *sync.RWMutex {
	d := *t.dir.Load()
	if ci := int(id >> chunkBits); ci < len(d) && d[ci] != nil {
		return &d[ci][id&(chunkSize-1)]
	}
	return t.slowLatch(id)
}

// slowLatch returns the latch of an id whose chunk is not published yet,
// or of an id past the dense range.
func (t *Table) slowLatch(id pagefile.PageID) *sync.RWMutex {
	ci := int(id >> chunkBits)
	if ci < maxChunks {
		return &t.addChunk(ci)[id&(chunkSize-1)]
	}
	l, ok := t.far.Load(id)
	if !ok {
		l, _ = t.far.LoadOrStore(id, new(sync.RWMutex))
	}
	return l.(*sync.RWMutex)
}

// addChunk returns chunk ci, publishing a directory copy that holds it
// when it does not exist yet.
func (t *Table) addChunk(ci int) *chunk {
	t.grow.Lock()
	defer t.grow.Unlock()
	old := *t.dir.Load()
	if ci < len(old) && old[ci] != nil {
		return old[ci] // published by another goroutine meanwhile
	}
	d := make([]*chunk, max(len(old), ci+1))
	copy(d, old)
	d[ci] = new(chunk)
	t.dir.Store(&d)
	return d[ci]
}

// Lock acquires id's latch exclusively. The caller must hold no other
// page latch (use LockRight for the coupling acquisitions).
func (t *Table) Lock(id pagefile.PageID) { t.latch(id).Lock() }

// LockRight is Lock for the latch-coupling acquisitions of the B-link
// protocol: the caller already holds one or more page latches and id is
// to the right of — or below — every one of them (a right sibling during
// a split's chain relink, or a child pair under its latched parent
// during rebalancing). Acquiring a left sibling or a parent through
// LockRight is an ordering bug; the latchorder analyzer flags plain
// Lock/RLock when a page latch is already held, so every coupling site
// is forced through here and is auditable.
func (t *Table) LockRight(id pagefile.PageID) { t.latch(id).Lock() }

// Unlock releases an exclusive latch on id.
func (t *Table) Unlock(id pagefile.PageID) { t.latch(id).Unlock() }

// RLock acquires id's latch shared. Readers hold at most one page latch
// at a time (the B-link descent re-latches per hop), so there is no
// shared coupling variant.
func (t *Table) RLock(id pagefile.PageID) { t.latch(id).RLock() }

// RUnlock releases a shared latch on id.
func (t *Table) RUnlock(id pagefile.PageID) { t.latch(id).RUnlock() }
