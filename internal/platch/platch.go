// Package platch provides per-page latches: short-term reader/writer
// locks keyed by page id, the concurrency primitive behind the B-link
// protocol in btree and core (see DESIGN.md "Index latching").
//
// A Table hands out refcounted RWMutexes on demand. Latches are created
// the first time a page is latched and linger briefly after the last
// holder leaves (a bounded per-shard cold list), so a page latched
// repeatedly — a leaf absorbing sequential inserts, a hot stab home —
// does not pay a map insert and delete per acquisition. An idle table's
// footprint is a few dozen entries per shard, independent of tree size,
// and evicted entries are recycled through a free list so steady-state
// latching does not allocate.
//
// Latches are keyed by id in a sharded map rather than hashed onto a
// fixed stripe array: with striping, two distinct pages can share a
// stripe, and a writer coupling "latch right sibling while holding the
// left" would self-deadlock when both hash to the same stripe. Refcounted
// entries make every page's latch independent, so the B-link ordering
// rules (top-to-bottom, left-to-right, never left-or-parent while
// holding right-or-child) are the only deadlock-freedom requirements.
//
// Lock ordering: page latches sit between the WAL checkpoint gate and the
// buffer-pool shard mutexes (level 3 of the latchorder analyzer). Within
// the level, acquiring a second page latch while holding one must go
// through LockRight, which documents — and lets the analyzer verify —
// that the second page is to the right of (or below) every held one.
package platch

import (
	"sync"

	"xrtree/internal/pagefile"
)

// latchShards is the shard count of the id → latch map; latching is a
// per-page-access hot path, so the map itself must not serialize readers.
const latchShards = 64

// entry is one live latch: its RWMutex plus the number of goroutines
// holding or waiting for it.
type entry struct {
	mu   sync.RWMutex
	refs int
}

// coldCap bounds the per-shard FIFO of eviction candidates: ids whose
// entry hit refs == 0 and was left resident in the map. Candidates are
// appended on every cool-down, so a hot page appears many times and is
// re-evaluated (refs check) at eviction time rather than tracked.
const coldCap = 32

// latchShard is one shard of the latch table.
type latchShard struct {
	mu   sync.Mutex
	m    map[pagefile.PageID]*entry
	cold []pagefile.PageID
	free []*entry
}

// Table is a set of per-page latches. The zero value is not ready; use
// NewTable.
type Table struct {
	shards [latchShards]latchShard
}

// NewTable returns an empty latch table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[pagefile.PageID]*entry)
	}
	return t
}

func (t *Table) shard(id pagefile.PageID) *latchShard {
	return &t.shards[uint64(id)%latchShards]
}

// pin returns the latch entry for id, creating it if needed, with its
// refcount raised by one.
func (s *latchShard) pin(id pagefile.PageID) *entry {
	s.mu.Lock()
	e := s.m[id]
	if e == nil {
		if n := len(s.free); n > 0 {
			e = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			e = &entry{}
		}
		s.m[id] = e
	}
	e.refs++
	s.mu.Unlock()
	return e
}

// unpinLocked drops one reference to id's latch entry, recycling it when
// the last holder leaves. The caller holds s.mu.
func (s *latchShard) unpinLocked(id pagefile.PageID) {
	e := s.m[id]
	e.refs--
	if e.refs == 0 {
		s.cold = append(s.cold, id)
		if len(s.cold) > coldCap {
			s.evictLocked()
		}
	}
}

// evictLocked deletes the older half of the cold candidates that are
// still unreferenced. A candidate may be stale — re-pinned since it
// cooled, or a duplicate of one already evicted — in which case the
// refs check skips it (or, for an id that cooled again after a
// re-create, evicts a recently idle entry early, which only costs a
// future re-insert). An entry at refs == 0 has no holder and no waiter
// — both pin before locking — so recycling its mutex is safe.
func (s *latchShard) evictLocked() {
	n := len(s.cold) / 2
	for _, id := range s.cold[:n] {
		if e := s.m[id]; e != nil && e.refs == 0 {
			delete(s.m, id)
			if len(s.free) < 32 {
				s.free = append(s.free, e)
			}
		}
	}
	s.cold = append(s.cold[:0], s.cold[n:]...)
}

// release is the combined lookup-unlock-unpin of the Unlock/RUnlock
// paths, in one shard-mutex cycle. Unlocking e.mu while the shard mutex
// is held cannot deadlock: waiters it wakes blocked inside e.mu after
// pin already released the shard mutex.
func (s *latchShard) release(id pagefile.PageID, shared bool) {
	s.mu.Lock()
	e := s.m[id]
	if shared {
		e.mu.RUnlock()
	} else {
		e.mu.Unlock()
	}
	s.unpinLocked(id)
	s.mu.Unlock()
}

// Lock acquires id's latch exclusively. The caller must hold no other
// page latch (use LockRight for the coupling acquisitions).
func (t *Table) Lock(id pagefile.PageID) {
	t.shard(id).pin(id).mu.Lock()
}

// LockRight is Lock for the latch-coupling acquisitions of the B-link
// protocol: the caller already holds one or more page latches and id is
// to the right of — or below — every one of them (a right sibling during
// a split's chain relink, or a child pair under its latched parent
// during rebalancing). Acquiring a left sibling or a parent through
// LockRight is an ordering bug; the latchorder analyzer flags plain
// Lock/RLock when a page latch is already held, so every coupling site
// is forced through here and is auditable.
func (t *Table) LockRight(id pagefile.PageID) {
	t.shard(id).pin(id).mu.Lock()
}

// Unlock releases an exclusive latch on id.
func (t *Table) Unlock(id pagefile.PageID) {
	t.shard(id).release(id, false)
}

// RLock acquires id's latch shared. Readers hold at most one page latch
// at a time (the B-link descent re-latches per hop), so there is no
// shared coupling variant.
func (t *Table) RLock(id pagefile.PageID) {
	t.shard(id).pin(id).mu.RLock()
}

// RUnlock releases a shared latch on id.
func (t *Table) RUnlock(id pagefile.PageID) {
	t.shard(id).release(id, true)
}
