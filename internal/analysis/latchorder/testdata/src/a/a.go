// Package a models the repo's six lock classes for the latchorder
// analyzer tests: Tree.wlatch (level 1), Pool.ckptGate (level 2),
// Tree.pl page latches (level 3, LockRight coupling), shard.mu
// (level 4), shardState.mu (level 5), and Prober.mu (level 6), with
// methods matching the summarized names.
package a

import "sync"

type Pool struct {
	ckptGate sync.RWMutex
}

func (p *Pool) Fetch(id uint32) ([]byte, error)   { return nil, nil }
func (p *Pool) Unpin(id uint32, dirty bool) error { return nil }
func (p *Pool) CommitTx(tx any) error             { return nil }
func (p *Pool) FlushAll() error                   { return nil }

type shard struct {
	mu sync.Mutex
}

// Table stands in for platch.Table: per-page latches addressed by page
// ID, with the LockRight spelling for B-link coupling acquisitions.
type Table struct{}

func (t *Table) Lock(id uint32)      {}
func (t *Table) LockRight(id uint32) {}
func (t *Table) Unlock(id uint32)    {}
func (t *Table) RLock(id uint32)     {}
func (t *Table) RUnlock(id uint32)   {}

type Tree struct {
	wlatch sync.Mutex
	pl     *Table
	pool   *Pool
	s      *shard
}

func (t *Tree) Insert(k int)    {}
func (t *Tree) Lookup(k uint32) {}

type shardState struct {
	mu sync.Mutex
}

type Prober struct {
	mu sync.Mutex
}

func (p *Prober) Up(name string) bool { return true }
func (p *Prober) Close()              {}

type Coordinator struct{}

func (c *Coordinator) Gather() {}

// ---- negative cases: acquisitions in increasing level order ----

func goodOrder(t *Tree) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	t.pool.Fetch(1) // wlatch (1) then pool shard (4): ok
}

func goodIncreasingChain(t *Tree) {
	t.wlatch.Lock()
	t.pool.ckptGate.RLock()
	t.s.mu.Lock()
	t.s.mu.Unlock()
	t.pool.ckptGate.RUnlock()
	t.wlatch.Unlock()
}

func goodSequential(t *Tree) {
	t.wlatch.Lock()
	t.wlatch.Unlock()
	t.wlatch.Lock() // first latch released: not nested
	t.wlatch.Unlock()
}

func goodBranchRelease(t *Tree, cond bool) {
	t.wlatch.Lock()
	if cond {
		t.wlatch.Unlock()
		return
	}
	t.pool.Fetch(1)
	t.wlatch.Unlock()
}

func goodGoroutine(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	go func() {
		t.wlatch.Lock() // fresh goroutine: empty held set
		t.wlatch.Unlock()
	}()
}

// goodWriterBracket mirrors a B-link mutation: wlatch for the whole
// operation, an exclusive page latch around the one reader-visible
// write, the pool fetch (4) under that latch.
func goodWriterBracket(t *Tree) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	t.pl.Lock(7)
	t.pool.Fetch(7)
	t.pl.Unlock(7)
}

// goodLatchCoupling mirrors rebalancePair: parent first, then the two
// children left-to-right — the second and third page latches go through
// LockRight, making the rightward/downward direction auditable.
func goodLatchCoupling(t *Tree) {
	t.pl.Lock(1)
	t.pl.LockRight(2)
	t.pl.LockRight(3)
	t.pl.Unlock(3)
	t.pl.Unlock(2)
	t.pl.Unlock(1)
}

// goodReaderHop mirrors a B-link descent: one shared page latch at a
// time, released before the next is taken.
func goodReaderHop(t *Tree) {
	t.pl.RLock(1)
	t.pl.RUnlock(1)
	t.pl.RLock(2)
	t.pl.RUnlock(2)
}

// goodCommitUnderLatch mirrors the WAL protocol: a mutation holds
// wlatch for its whole transaction and commits under it — the gate (2)
// nests inside wlatch (1).
func goodCommitUnderLatch(t *Tree) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	t.pool.CommitTx(nil)
}

// goodCheckpointShape mirrors Pool.Checkpoint: the gate's write side via
// TryLock, then the shard-level flush under it.
func goodCheckpointShape(p *Pool) {
	if !p.ckptGate.TryLock() {
		return
	}
	defer p.ckptGate.Unlock()
	p.FlushAll()
}

//xrvet:latchorder-ignore deliberate inversion exercised under test
func ignoredInversion(t *Tree) {
	t.s.mu.Lock()
	t.wlatch.Lock()
	t.wlatch.Unlock()
	t.s.mu.Unlock()
}

// ---- positive cases: order violations ----

func badPoolUnderShard(t *Tree) {
	t.s.mu.Lock()
	t.pool.Fetch(1) // want `latch order violation: calling t.pool.Fetch \(acquires level 4\) while holding t.s.mu \(level 4\)`
	t.s.mu.Unlock()
}

func badLatchUnderShard(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.wlatch.Lock() // want `latch order violation: acquiring t.wlatch \(level 1\) while holding t.s.mu \(level 4\)`
	t.wlatch.Unlock()
}

func badRecursiveLatch(t *Tree) {
	t.wlatch.Lock()
	t.wlatch.Lock() // want `latch order violation: acquiring t.wlatch \(level 1\) while holding t.wlatch \(level 1\)`
	t.wlatch.Unlock()
	t.wlatch.Unlock()
}

func badShardUnderInventory(t *Tree, st *shardState) {
	st.mu.Lock()
	t.s.mu.Lock() // want `latch order violation: acquiring t.s.mu \(level 4\) while holding st.mu \(level 5\)`
	t.s.mu.Unlock()
	st.mu.Unlock()
}

// badSecondPageLatchPlain couples two page latches with a plain Lock:
// nothing marks the direction, so it is indistinguishable from a
// left-or-upward acquisition that deadlocks against a writer coupling
// rightward.
func badSecondPageLatchPlain(t *Tree) {
	t.pl.Lock(1)
	t.pl.Lock(2) // want `latch order violation: acquiring page latch t.pl\(2\) while holding t.pl\(1\); a second page latch must be taken with LockRight`
	t.pl.Unlock(2)
	t.pl.Unlock(1)
}

// badSecondPageLatchShared is the same mistake on the read side — a
// descent must release before hopping, never hold two shared latches.
func badSecondPageLatchShared(t *Tree) {
	t.pl.RLock(1)
	t.pl.RLock(2) // want `latch order violation: acquiring page latch t.pl\(2\) while holding t.pl\(1\); a second page latch must be taken with LockRight`
	t.pl.RUnlock(2)
	t.pl.RUnlock(1)
}

// badPageLatchUnderShard takes a page latch under a pool shard mutex:
// the fetch inside the latched region would re-enter the shard.
func badPageLatchUnderShard(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.pl.Lock(1) // want `latch order violation: acquiring t.pl\(1\) \(level 3\) while holding t.s.mu \(level 4\)`
	t.pl.Unlock(1)
}

// badLockRightUnderShard: LockRight only licenses same-level coupling;
// it does not excuse acquiring below a higher held level.
func badLockRightUnderShard(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.pl.LockRight(1) // want `latch order violation: acquiring t.pl\(1\) \(level 3\) while holding t.s.mu \(level 4\)`
	t.pl.Unlock(1)
}

// badWlatchUnderPageLatch reaches back up to the writer mutex while a
// page latch is held — the shape of calling the exact-answer fallback
// from inside a latched probe.
func badWlatchUnderPageLatch(t *Tree) {
	t.pl.RLock(1)
	t.wlatch.Lock() // want `latch order violation: acquiring t.wlatch \(level 1\) while holding t.pl\(1\) \(level 3\)`
	t.wlatch.Unlock()
	t.pl.RUnlock(1)
}

// badReaderReentry re-enters a page-latching read entry point while a
// page latch is held — self-deadlock if the descent reaches the same
// page.
func badReaderReentry(t, u *Tree) {
	t.pl.RLock(1)
	u.Lookup(7) // want `latch order violation: calling u.Lookup \(acquires level 3\) while holding t.pl\(1\) \(level 3\)`
	t.pl.RUnlock(1)
}

// badGateUnderShard inverts the PR 7 commit protocol: the checkpoint
// gate (2) must be taken before any shard mutex (4), the way CommitTx
// does, never under one.
func badGateUnderShard(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.pool.ckptGate.RLock() // want `latch order violation: acquiring t.pool.ckptGate \(level 2\) while holding t.s.mu \(level 4\)`
	t.pool.ckptGate.RUnlock()
}

// badTryGateUnderShard is the same inversion through TryLock — trying
// out of order is still ordered wrong.
func badTryGateUnderShard(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.pool.ckptGate.TryLock() { // want `latch order violation: acquiring t.pool.ckptGate \(level 2\) while holding t.s.mu \(level 4\)`
		t.pool.ckptGate.Unlock()
	}
}

// badCommitUnderShard commits while holding a shard mutex (4): the
// commit takes the gate (2) and shard mutexes internally.
func badCommitUnderShard(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.pool.CommitTx(nil) // want `latch order violation: calling t.pool.CommitTx \(acquires level 2\) while holding t.s.mu \(level 4\)`
}

// badNestedTreeOp re-enters a wlatch entry point while write-latched —
// the self-deadlock shape CheckInvariants-under-wlatch would have.
func badNestedTreeOp(t, u *Tree) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	u.Insert(1) // want `latch order violation: calling u.Insert \(acquires level 1\) while holding t.wlatch \(level 1\)`
}

// lockHelper gives the fixpoint a same-package summary to propagate.
func lockHelper(t *Tree) {
	t.wlatch.Lock()
	t.wlatch.Unlock()
}

func badCallsHelperUnderShard(t *Tree) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	lockHelper(t) // want `latch order violation: calling lockHelper \(acquires level 1\) while holding t.s.mu \(level 4\)`
}

// rightHelper couples rightward only: its fixpoint summary is marked
// right-only, so calling it under a held page latch is legal — the
// shape of a rebalance helper doing a merge's prev-pointer fix.
func rightHelper(t *Tree) {
	t.pl.LockRight(8)
	t.pl.Unlock(8)
}

func goodCallsRightHelperLatched(t *Tree) {
	t.pl.Lock(1)
	defer t.pl.Unlock(1)
	rightHelper(t)
}

// latchHelper summarizes to the page-latch level through the fixpoint.
func latchHelper(t *Tree) {
	t.pl.RLock(9)
	t.pl.RUnlock(9)
}

func badCallsLatchHelperLatched(t *Tree) {
	t.pl.Lock(1)
	defer t.pl.Unlock(1)
	latchHelper(t) // want `latch order violation: calling latchHelper \(acquires level 3\) while holding t.pl\(1\) \(level 3\)`
}

func badGoroutineBody(t *Tree) {
	go func() {
		t.s.mu.Lock()
		t.wlatch.Lock() // want `latch order violation: acquiring t.wlatch \(level 1\) while holding t.s.mu \(level 4\)`
		t.wlatch.Unlock()
		t.s.mu.Unlock()
	}()
}

// ---- cluster lock classes (PR 8): router-side leaves ----

func goodProberUnderInventory(st *shardState, pr *Prober) {
	st.mu.Lock()
	defer st.mu.Unlock()
	pr.Up("s0") // shard state (5) then prober (6): ok
}

func badInventoryUnderProber(st *shardState, pr *Prober) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	st.mu.Lock() // want `latch order violation: acquiring st.mu \(level 5\) while holding pr.mu \(level 6\)`
	st.mu.Unlock()
}

// badPoolUnderProber: cluster locks are leaves above every storage lock;
// reaching back into the pool while holding one is ordered wrong.
func badPoolUnderProber(pr *Prober, p *Pool) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	p.Fetch(1) // want `latch order violation: calling p.Fetch \(acquires level 4\) while holding pr.mu \(level 6\)`
}

// badProberCloseUnderOwnMutex: Close joins the probe loop, which takes
// the prober mutex on every round — holding it across Close deadlocks.
func badProberCloseUnderOwnMutex(pr *Prober) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.Close() // want `latch order violation: calling pr.Close \(acquires level 6\) while holding pr.mu \(level 6\)`
}

// badGatherUnderInventory: Gather takes the inventory mutex itself, so
// calling it with that mutex held self-deadlocks.
func badGatherUnderInventory(st *shardState, co *Coordinator) {
	st.mu.Lock()
	defer st.mu.Unlock()
	co.Gather() // want `latch order violation: calling co.Gather \(acquires level 5\) while holding st.mu \(level 5\)`
}

//xrvet:latchorder-ignore
func bareIgnoredInversion(t *Tree) { // want `bare //xrvet:latchorder-ignore escape: add a justification`
	t.s.mu.Lock()
	t.wlatch.Lock()
	t.wlatch.Unlock()
	t.s.mu.Unlock()
}
