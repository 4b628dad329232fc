package core

// Bulk loading builds the B+-tree backbone bottom-up at a chosen fill
// factor — the representation the read-only join experiments measure —
// with the write layer of internal/blink (separators use the §3.2 key
// choice, so they stab as few elements as possible), and then homes every
// element in the stab list of the highest stabbing node, exactly the state
// repeated Insert calls would converge to.

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/xmldoc"
)

// Loaded homes every element once the backbone is built and published.
// Homing — flag raising plus chain inserts — is one long stab move.
func (h stabHooks) Loaded(es []xmldoc.Element) error {
	h.beginStabMove()
	for _, e := range es {
		if err := h.homeElement(e); err != nil {
			return err
		}
	}
	return nil
}

// homeElement inserts e into the stab list of the highest stabbing node on
// its start path, setting the leaf InStabList flag when it does. The leaf
// entry for e must already exist. The tree is already published, so every
// mutation happens under the page's exclusive latch.
func (t *Tree) homeElement(e xmldoc.Element) error {
	id, h := t.Root()
	homed := false
	for level := h; level > 1; level-- {
		data, err := t.w.Fetch(id)
		if err != nil {
			return err
		}
		dirty := false
		if !homed && primaryKeyIndex(data, e.Start, e.End) >= 0 {
			t.pl.Lock(id)
			err := t.stabInsertElement(data, e)
			t.pl.Unlock(id)
			if err != nil {
				t.w.Unpin(id, true)
				return err
			}
			homed = true
			dirty = true
		}
		child := intShape.Child(data, intShape.Search(data, e.Start))
		if err := t.w.Unpin(id, dirty); err != nil {
			return err
		}
		id = child
	}
	if !homed {
		return nil
	}
	data, err := t.w.Fetch(id)
	if err != nil {
		return err
	}
	pos := blink.LeafSearch(data, e.Start)
	if pos >= blink.LeafCount(data) || blink.LeafKey(data, pos) != e.Start {
		t.w.Unpin(id, false)
		return fmt.Errorf("%w: bulk-loaded element %v missing from leaf", ErrCorrupt, e)
	}
	t.pl.Lock(id)
	_, fl := blink.LeafElem(data, pos)
	blink.SetLeafFlags(data, pos, fl|xmldoc.FlagInStabList)
	t.pl.Unlock(id)
	return t.w.Unpin(id, true)
}
