// Package bufferpool implements the buffer manager that sits between every
// index and the paged storage manager. It mirrors the component the paper's
// experimental system uses: a fixed number of page frames, pin/unpin
// discipline, LRU replacement among unpinned frames, dirty write-back, and
// hit/miss counters (the paper's elapsed-time results are dominated by page
// misses, so the miss counter is the primary cost signal of the benchmark
// harness).
//
// The paper runs all join experiments with a pool of 100 pages and reports
// that varying the pool size does not essentially change the results; the
// default here is likewise 100 frames and the size is configurable for the
// ablation benchmark.
//
// # Sharding
//
// The pool is lock-striped: frames are partitioned into a power-of-two
// number of shards keyed by page id, each shard owning its own mutex,
// frame map, and LRU list, so concurrent queries on different pages never
// contend on one global lock. Page ids are allocated sequentially, so the
// modulo mapping spreads a tree's pages round-robin across shards.
// Replacement is LRU within a shard (an approximation of global LRU with
// the same worst-case bound: a shard holds capacity/shards frames). The
// shard count is a heuristic — the largest power of two ≤ 8 that
// keeps every shard at ≥ 16 frames — so small pools (including every
// eviction-order test fixture) keep exact single-LRU semantics.
package bufferpool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xrtree/internal/metrics"
	"xrtree/internal/obs"
	"xrtree/internal/pagefile"
	"xrtree/internal/wal"
)

// DefaultFrames is the default pool capacity in frames, matching §6.1.
const DefaultFrames = 100

// Shard-count heuristic bounds: shards never exceed maxShards and never
// hold fewer than minFramesPerShard frames (so a single descent can always
// pin its whole root-to-leaf path inside one shard).
const (
	maxShards         = 8
	minFramesPerShard = 16
)

// Errors returned by the pool.
var (
	ErrPoolFull   = errors.New("bufferpool: all frames pinned")
	ErrNotPinned  = errors.New("bufferpool: page not pinned")
	ErrBadUnpin   = errors.New("bufferpool: unpin of page not in pool")
	ErrZeroFrames = errors.New("bufferpool: pool must have at least one frame")
)

// frame is one buffered page. Frames on their shard's LRU list link to
// each other intrusively so pin/unpin never allocates.
type frame struct {
	id    pagefile.PageID
	data  []byte
	pins  int
	dirty bool
	// prev/next link the frame into its shard's LRU list while it is
	// unpinned; listed marks membership (false while pinned, held, or
	// being admitted).
	prev, next *frame
	listed     bool
	// held marks a frame touched by an in-flight WAL transaction (no-steal
	// policy, see wal.go in this package): set at fetch time, cleared at
	// commit. A held frame is never on the LRU list — it stays unlisted
	// when its pins drop to zero — and flushLocked skips it, so it
	// cannot reach the page file before its redo records are durable.
	held bool
	// lsn is the commit LSN of the frame's newest logged image; write-back
	// waits for the log to be durable past it (the WAL-before-page rule).
	lsn uint64
	// sum is the resting-page checksum oracle (debug builds only; see
	// debug.go). hasSum marks it valid.
	sum    uint64
	hasSum bool
}

// flist is an intrusive doubly-linked frame list: head is most recently
// pushed, tail is the replacement victim.
type flist struct {
	head, tail *frame
}

// shard is one lock-striped partition of the pool: its own mutex, frame
// map, and LRU list over its slice of the capacity. spare holds the frames
// DropClean dropped, page buffers and all, for admitLocked to reuse: a
// cold-started pool refills without allocating.
type shard struct {
	mu     sync.Mutex
	frames map[pagefile.PageID]*frame
	lru    flist
	cap    int
	spare  []*frame
}

// Pool is a sharded buffer pool over a single pagefile.File. All methods
// are safe for concurrent use; per-page pin counts are protected by the
// owning shard's mutex.
type Pool struct {
	file   *pagefile.File
	shards []*shard
	mask   uint32 // len(shards)-1; len(shards) is a power of two
	cap    int

	// wal, when set, is the write-ahead log beneath the pool: mutations run
	// as transactions (Begin/CommitTx) whose touched frames are held back
	// from write-back until their images are durably logged. ckptBytes is
	// the fuzzy-checkpoint trigger; ckptGate serializes checkpoints and
	// excludes them from unlogged bulk builds (see wal.go).
	wal       atomic.Pointer[wal.Log]
	ckptBytes int64
	ckptGate  sync.RWMutex

	// hits, misses and evictions are the pool's always-on counters, atomic
	// so Stats snapshots never race with concurrent fetches.
	hits, misses, evictions atomic.Int64
	// sink, when non-nil, also receives hit/miss/eviction increments;
	// experiments point this at their per-run counter set. Increments use
	// atomic adds on the sink's fields so a sink shared between concurrent
	// queries does not race. The owner may read the sink plainly only
	// after detaching AND after every concurrent operation on the pool has
	// returned (AttachStats callers detach after their join finishes). The
	// sink's Tracer, if set, receives PageEvict events.
	sink atomic.Pointer[metrics.Counters]

	// debugPins is the xrtreedebug net-pin ledger (see debug.go).
	debugPins atomic.Int64
}

// defaultShards returns the heuristic shard count for a pool of the given
// capacity: the largest power of two ≤ maxShards with at least
// minFramesPerShard frames per shard. Deterministic in the capacity alone,
// so experiment miss counts do not depend on the host.
func defaultShards(capacity int) int {
	n := 1
	for n < maxShards && capacity/(n*2) >= minFramesPerShard {
		n *= 2
	}
	return n
}

// New creates a pool of capacity frames over file with the heuristic shard
// count. Capacity must be ≥ 1.
func New(file *pagefile.File, capacity int) (*Pool, error) {
	return newSharded(file, capacity, 0)
}

// newSharded creates a pool with an explicit shard count (rounded up to a
// power of two, clamped to capacity); shards ≤ 0 selects the heuristic.
func newSharded(file *pagefile.File, capacity, shards int) (*Pool, error) {
	if capacity <= 0 {
		return nil, ErrZeroFrames
	}
	if shards <= 0 {
		shards = defaultShards(capacity)
	}
	for shards > capacity {
		shards /= 2
	}
	n := 1
	for n < shards {
		n *= 2
	}
	p := &Pool{file: file, shards: make([]*shard, n), mask: uint32(n - 1), cap: capacity}
	for i := range p.shards {
		c := capacity / n
		if i < capacity%n {
			c++
		}
		p.shards[i] = &shard{frames: make(map[pagefile.PageID]*frame, c), cap: c}
	}
	return p, nil
}

// Close is a no-op kept because bench/xrperf calls it.
func (p *Pool) Close() {}

// File returns the underlying paged file.
func (p *Pool) File() *pagefile.File { return p.file }

// Capacity returns the pool capacity in frames.
func (p *Pool) Capacity() int { return p.cap }

// Shards returns the number of lock-striped partitions.
func (p *Pool) Shards() int { return len(p.shards) }

// shardFor maps a page id to its owning shard. Sequential allocation makes
// this a round-robin spread.
func (p *Pool) shardFor(id pagefile.PageID) *shard {
	return p.shards[uint32(id)&p.mask]
}

// SetSink directs hit/miss/eviction counting to c in addition to the
// pool's own statistics. Pass nil to detach. Increments use atomic adds,
// so attaching is immediately safe; plain reads of the sink are safe once
// it is detached and no pool operation is in flight.
func (p *Pool) SetSink(c *metrics.Counters) {
	p.sink.Store(c)
}

// Stats returns a snapshot of the pool's counters: buffer hits, misses
// and evictions.
func (p *Pool) Stats() metrics.Counters {
	return metrics.Counters{BufferHits: p.hits.Load(), BufferMisses: p.misses.Load(), PageEvictions: p.evictions.Load()}
}

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
}

// countAccess records one pool lookup in the always-on stats and the
// attached sink.
func (p *Pool) countAccess(hit bool) {
	if hit {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
	}
	if sink := p.sink.Load(); sink != nil {
		if hit {
			atomic.AddInt64(&sink.BufferHits, 1)
		} else {
			atomic.AddInt64(&sink.BufferMisses, 1)
		}
	}
}

// --- intrusive LRU list (per shard) ----------------------------------------

func (l *flist) pushFront(f *frame) {
	f.prev = nil
	f.next = l.head
	if l.head != nil {
		l.head.prev = f
	}
	l.head = f
	if l.tail == nil {
		l.tail = f
	}
}

func (l *flist) remove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

// listRemove takes f off the LRU list if it is on it.
func (s *shard) listRemove(f *frame) {
	if f.listed {
		s.lru.remove(f)
		f.listed = false
	}
}

// releaseLocked puts an unpinned frame at the most-recent end of the LRU
// list.
func (s *shard) releaseLocked(f *frame) {
	s.lru.pushFront(f)
	f.listed = true
}

// Fetch pins page id and returns its in-pool bytes. The returned slice
// aliases the frame and is valid until the matching Unpin. Callers that
// modify the bytes must pass dirty=true to Unpin.
func (p *Pool) Fetch(id pagefile.PageID) ([]byte, error) {
	return p.FetchTraced(id, nil)
}

// FetchTraced is Fetch with per-call read attribution: when the lookup
// misses and tr is non-nil, the physical read's EvPageRead event is
// charged to tr instead of the file-attached tracer (see
// pagefile.ReadPageTo). The nil-tr path is identical to Fetch.
func (p *Pool) FetchTraced(id pagefile.PageID, tr obs.Tracer) ([]byte, error) {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := p.fetchLocked(s, id, tr)
	if err != nil {
		return nil, err
	}
	s.pinLocked(f)
	p.debugPinned(1)
	return f.data, nil
}

// FetchCopy copies page id into dst (which must be PageSize bytes) with
// the same hit/miss accounting as Fetch, but leaves nothing pinned: the
// copy happens under the shard mutex. Iterators use it so they never hold
// pins between calls. Callers must ensure no concurrent writer is mutating
// the page's bytes (the index latching protocol does).
func (p *Pool) FetchCopy(id pagefile.PageID, dst []byte) error {
	return p.FetchCopyTraced(id, dst, nil)
}

// FetchCopyTraced is FetchCopy with per-call read attribution, mirroring
// FetchTraced: a miss's EvPageRead goes to tr when non-nil.
func (p *Pool) FetchCopyTraced(id pagefile.PageID, dst []byte, tr obs.Tracer) error {
	if len(dst) != p.file.PageSize() {
		return fmt.Errorf("bufferpool: FetchCopy buffer is %d bytes, want %d", len(dst), p.file.PageSize())
	}
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := p.fetchLocked(s, id, tr)
	if err != nil {
		return err
	}
	copy(dst, f.data)
	if f.pins == 0 && !f.listed && !f.held {
		// Freshly admitted by this call: make it a replacement candidate.
		s.releaseLocked(f)
	}
	return nil
}

// fetchLocked returns the resident frame for page id, admitting and
// reading it on a miss. The caller holds s.mu; the returned frame is not
// pinned by this call (a missed frame is registered but off the LRU).
// tr, when non-nil, receives the miss's EvPageRead instead of the
// file-attached tracer.
func (p *Pool) fetchLocked(s *shard, id pagefile.PageID, tr obs.Tracer) (*frame, error) {
	if f, ok := s.frames[id]; ok {
		p.countAccess(true)
		f.verifySum()
		return f, nil
	}
	p.countAccess(false)
	f, err := p.admitLocked(s, id)
	if err != nil {
		return nil, err
	}
	if err := p.file.ReadPageTo(id, f.data, tr); err != nil {
		// Admission failed; drop the frame entirely.
		delete(s.frames, id)
		return nil, err
	}
	f.restSum()
	return f, nil
}

// FetchNew allocates a new page in the file, pins it, and returns its id
// and zeroed in-pool bytes. The caller must Unpin with dirty=true after
// initializing it.
func (p *Pool) FetchNew() (pagefile.PageID, []byte, error) {
	id, err := p.file.Allocate()
	if err != nil {
		return pagefile.InvalidPage, nil, err
	}
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := p.admitLocked(s, id)
	if err != nil {
		return pagefile.InvalidPage, nil, err
	}
	clear(f.data)
	f.dirty = true
	s.pinLocked(f)
	p.debugPinned(1)
	return id, f.data, nil
}

// Unpin releases one pin on page id. dirty marks the page as modified so it
// is written back before eviction.
func (p *Pool) Unpin(id pagefile.PageID, dirty bool) error {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[id]
	if !ok {
		return fmt.Errorf("%w: page %d", ErrBadUnpin, id)
	}
	if f.pins == 0 {
		return fmt.Errorf("%w: page %d", ErrNotPinned, id)
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	p.debugPinned(-1)
	if f.pins == 0 {
		f.restSum()
		// Held frames stay offList until their transaction commits.
		if !f.held {
			s.releaseLocked(f)
		}
	}
	return nil
}

// Discard drops page id from the pool without writing it back and frees it
// in the file. The page must be pinned exactly once by the caller.
func (p *Pool) Discard(id pagefile.PageID) error {
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
	delete(s.frames, id)
	p.debugPinned(-1)
	s.mu.Unlock()
	return p.file.Free(id)
}

// FlushAll writes every dirty frame back to the file. Pinned frames are
// flushed too (they stay pinned and in the pool); frames held by an
// in-flight WAL transaction are skipped — their write-back happens after
// their commit makes the redo records durable.
func (p *Pool) FlushAll() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if err := p.flushLocked(f); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// DropClean evicts every unpinned frame after flushing it; useful between
// experiment runs to cold-start the cache deterministically. The dropped
// frames go to their shard's spare list.
func (p *Pool) DropClean() error {
	for _, s := range p.shards {
		s.mu.Lock()
		for f := s.lru.head; f != nil; {
			next := f.next
			if err := p.flushLocked(f); err != nil {
				s.mu.Unlock()
				return err
			}
			s.listRemove(f)
			delete(s.frames, f.id)
			*f = frame{data: f.data}
			s.spare = append(s.spare, f)
			f = next
		}
		s.mu.Unlock()
	}
	return nil
}

// PinnedCount returns the number of frames currently pinned (for tests).
func (p *Pool) PinnedCount() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

func (s *shard) pinLocked(f *frame) {
	s.listRemove(f)
	f.dropSum()
	f.pins++
}

// admitLocked finds a frame for page id within shard s, evicting the
// shard's LRU unpinned frame when the shard is at capacity. The returned
// frame is registered in the frame map with zero pins and stale data.
func (p *Pool) admitLocked(s *shard, id pagefile.PageID) (*frame, error) {
	if len(s.frames) >= s.cap {
		victim := s.lru.tail
		if victim == nil {
			return nil, fmt.Errorf("%w (%d of %d shard frames)", ErrPoolFull, s.cap, p.cap)
		}
		if err := p.flushLocked(victim); err != nil {
			return nil, err
		}
		p.evictions.Add(1)
		if sink := p.sink.Load(); sink != nil {
			atomic.AddInt64(&sink.PageEvictions, 1)
			sink.Emit(obs.EvPageEvict, 1)
		}
		s.listRemove(victim)
		delete(s.frames, victim.id)
		victim.id = id
		victim.dirty = false
		victim.dropSum()
		s.frames[id] = victim
		return victim, nil
	}
	var f *frame
	if n := len(s.spare); n > 0 {
		f = s.spare[n-1]
		s.spare = s.spare[:n-1]
		f.id = id
	} else {
		f = &frame{id: id, data: make([]byte, p.file.PageSize())}
	}
	s.frames[id] = f
	return f, nil
}

func (p *Pool) flushLocked(f *frame) error {
	f.verifySum()
	if !f.dirty || f.held {
		return nil
	}
	// WAL-before-page: the log must be durable past the frame's newest
	// logged image before that image reaches the page file.
	if f.lsn > 0 {
		if l := p.wal.Load(); l != nil {
			if err := l.FlushTo(f.lsn); err != nil {
				return err
			}
		}
	}
	if err := p.file.WritePage(f.id, f.data); err != nil {
		return err
	}
	f.dirty = false
	return nil
}
