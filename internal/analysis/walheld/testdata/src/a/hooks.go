package a

import (
	"xrtree/internal/blink"
	"xrtree/internal/xmldoc"
)

// stabHooks models core's blink.Hooks implementation: blink's write layer
// calls its methods inside a transaction that no function of this package
// opens, so each hook method is an in-Tx root. Embedding the interface
// supplies the methods the cases below do not declare.
type stabHooks struct {
	blink.Hooks
	t *Tree
}

// ---- negative cases ----

// Stabs reads through the held wrapper: clean.
func (h stabHooks) Stabs(d []byte, e xmldoc.Element) bool {
	_, err := h.t.fetchStab(PageID(e.Start))
	return err == nil
}

// probe is no Hooks method and has no in-Tx caller: plain fetches are
// allowed.
func (h stabHooks) probe(id PageID) error {
	_, err := h.t.pool.FetchTraced(id, nil)
	return err
}

// ---- positive cases ----

// Home fetches plainly in a hook method.
func (h stabHooks) Home(d []byte, e xmldoc.Element) error {
	_, err := h.t.pool.Fetch(PageID(e.Start)) // want `unlogged page fetch in a mutation transaction: h.t.pool.Fetch bypasses the held-frame protocol`
	return err
}

// stabChainPlain is reached only from a hook method: the fixpoint marks
// it in-Tx, which is how the stab-chain helpers under core's hooks are
// checked.
func (t *Tree) stabChainPlain(id PageID) error {
	_, err := t.pool.FetchTraced(id, nil) // want `unlogged page fetch in a mutation transaction: t.pool.FetchTraced bypasses the held-frame protocol`
	return err
}

func (h stabHooks) Unhome(d []byte, e xmldoc.Element) (bool, error) {
	return true, h.t.stabChainPlain(PageID(e.Start))
}
