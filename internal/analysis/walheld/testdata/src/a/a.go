// Package a models the buffer pool's transaction protocol for the
// walheld analyzer tests: a Pool with Begin and held/plain fetches, and
// a Tree using the repo's beginTx / fetch-wrapper idiom.
package a

type PageID uint32

type Tx struct{}

type Tracer interface{ Event(kind int) }

type Pool struct{}

func (p *Pool) Begin() *Tx { return nil }
func (p *Pool) FetchHeld(tx *Tx, id PageID) ([]byte, error) {
	return nil, nil
}
func (p *Pool) FetchNewHeld(tx *Tx) (PageID, []byte, error) { return 0, nil, nil }
func (p *Pool) Fetch(id PageID) ([]byte, error)             { return nil, nil }
func (p *Pool) FetchTraced(id PageID, tr Tracer) ([]byte, error) {
	return nil, nil
}
func (p *Pool) FetchCopy(id PageID, dst []byte) error { return nil }
func (p *Pool) CommitTx(tx *Tx) error                 { return nil }
func (p *Pool) Unpin(id PageID, dirty bool) error     { return nil }

type Tree struct {
	pool *Pool
	tx   *Tx
}

// beginTx opens the transaction and returns the deferred commit closure,
// mirroring blink.Tree.beginTx.
func (t *Tree) beginTx() func(*error) {
	t.tx = t.pool.Begin()
	return func(errp *error) {
		tx := t.tx
		t.tx = nil
		if cerr := t.pool.CommitTx(tx); cerr != nil && *errp == nil {
			*errp = cerr
		}
	}
}

// fetch and fetchStab are the held wrappers mutation code goes through.
func (t *Tree) fetch(id PageID) ([]byte, error) { return t.pool.FetchHeld(t.tx, id) }

func (t *Tree) fetchStab(id PageID) ([]byte, error) { return t.pool.FetchHeld(t.tx, id+1) }

// ---- negative cases ----

// Lookup is a query path: no transaction, plain fetches allowed.
func (t *Tree) Lookup(id PageID) ([]byte, error) {
	return t.pool.FetchTraced(id, nil)
}

// Insert goes through the held wrappers only: clean.
func (t *Tree) Insert(id PageID) (err error) {
	done := t.beginTx()
	defer done(&err)
	if _, err := t.fetch(id); err != nil {
		return err
	}
	_, err = t.fetchStab(id + 1)
	return err
}

// GoodPrecheck fetches plainly *before* opening the transaction — only
// positions after the opener call are in-Tx.
func (t *Tree) GoodPrecheck(id PageID) (err error) {
	if _, err := t.pool.Fetch(id); err != nil {
		return err
	}
	done := t.beginTx()
	defer done(&err)
	_, err = t.fetch(id)
	return err
}

// BulkAppend is an audited unlogged path: the escape carries its
// justification.
func (t *Tree) BulkAppend(id PageID) (err error) {
	done := t.beginTx()
	defer done(&err)
	//xrvet:unlogged builder frames are flushed by the store's save checkpoint
	_, err = t.pool.Fetch(id)
	return err
}

// ---- positive cases ----

// BadInsert fetches plainly inside its open transaction.
func (t *Tree) BadInsert(id PageID) (err error) {
	done := t.beginTx()
	defer done(&err)
	_, err = t.pool.Fetch(id) // want `unlogged page fetch in a mutation transaction: t.pool.Fetch bypasses the held-frame protocol`
	return err
}

// stabChain is only ever called from an open transaction: the fixpoint
// marks it wholly in-Tx and its plain fetch is the PR 7 stab-chain bug.
func (t *Tree) stabChain(id PageID) error {
	_, err := t.pool.FetchTraced(id, nil) // want `unlogged page fetch in a mutation transaction: t.pool.FetchTraced bypasses the held-frame protocol`
	return err
}

func (t *Tree) BadDelete(id PageID) (err error) {
	done := t.beginTx()
	defer done(&err)
	return t.stabChain(id)
}

// BadCopy: the copying fetches bypass the hold protocol just the same —
// the copy reads a frame the commit will never log.
func (t *Tree) BadCopy(id PageID, buf []byte) (err error) {
	done := t.beginTx()
	defer done(&err)
	return t.pool.FetchCopy(id, buf) // want `unlogged page fetch in a mutation transaction: t.pool.FetchCopy bypasses the held-frame protocol`
}

// BadBare carries an escape with no justification: rejected.
func (t *Tree) BadBare(id PageID) (err error) {
	done := t.beginTx()
	defer done(&err)
	//xrvet:unlogged
	_, err = t.pool.Fetch(id) // want `bare //xrvet:unlogged escape on t.pool.Fetch: add a justification`
	return err
}
