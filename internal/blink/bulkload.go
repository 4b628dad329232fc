package blink

import (
	"fmt"

	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

// BulkLoadLocked builds the tree bottom-up from es into the empty tree
// and publishes its root. valid is the owner's Insert check, applied to
// every element; starts must ascend strictly. fill is the target page
// occupancy in (0,1]; anything else means fully packed. The caller holds
// its write latch and brackets the unlogged build.
//
// The empty root leaf becomes the first leaf. It and every page the leaf
// chain reaches from it are visible to readers, so their mutations are
// latched; a fresh page is filled unlatched and only then linked. The
// internal levels stay unreachable until SetRoot and take no latches.
func (t *Tree) BulkLoadLocked(es []xmldoc.Element, fill float64, valid func(xmldoc.Element) error) error {
	for i, e := range es {
		if err := valid(e); err != nil {
			return fmt.Errorf("%w (BulkLoad element %d)", err, i)
		}
		if i > 0 && es[i-1].Start >= e.Start {
			return fmt.Errorf("blink: BulkLoad input not sorted at %d", i)
		}
	}
	if len(es) == 0 {
		return nil
	}
	if fill <= 0 || fill > 1 {
		fill = 1
	}

	// The leaf level. level[i].sep is the separator left of page i (unused
	// for i = 0).
	type levelEntry struct {
		sep uint32
		id  pagefile.PageID
	}
	var level []levelEntry
	perLeaf := max(int(float64(t.leafCap)*fill), 1)
	var prevID pagefile.PageID
	var prev []byte
	for off := 0; off < len(es); off += perLeaf {
		n := min(len(es)-off, perLeaf)
		var id pagefile.PageID
		var d []byte
		var err error
		if off == 0 {
			id, _ = t.Root()
			d, err = t.pages.Fetch(id)
		} else {
			id, d, err = t.pages.FetchNew()
		}
		if err != nil {
			return err
		}
		sep := uint32(0)
		if off == 0 {
			t.pl.Lock(id)
			fillLeaf(d, es[:n])
			t.pl.Unlock(id)
		} else {
			fillLeaf(d, es[off:off+n])
			sep = t.sep(es[off-1].Start, es[off].Start)
			SetLeafPrev(d, prevID)
			t.pl.Lock(prevID)
			SetLeafNext(prev, id)
			SetLeafHigh(prev, sep)
			t.pl.Unlock(prevID)
			if err := t.pages.Unpin(prevID, true); err != nil {
				return err
			}
		}
		level = append(level, levelEntry{sep, id})
		prevID, prev = id, d
	}
	if err := t.pages.Unpin(prevID, true); err != nil {
		return err
	}

	// The internal levels, until one node remains; each node stays pinned
	// until its right neighbour exists to set its link and high key.
	s := t.shape
	height := 1
	perNode := max(int(float64(t.intCap)*fill), 2)
	for len(level) > 1 {
		var next []levelEntry
		prev = nil
		for off := 0; off < len(level); {
			n := min(len(level)-off, perNode+1)
			if len(level)-off-n == 1 {
				n-- // a node needs two children: leave the last one a pair
			}
			id, d, err := t.pages.FetchNew()
			if err != nil {
				return err
			}
			s.Init(d)
			s.SetChild(d, 0, level[off].id)
			for i := 1; i < n; i++ {
				fresh(s.Entry(d, i-1), level[off+i].sep, level[off+i].id)
			}
			s.SetCount(d, n-1)
			if prev != nil {
				s.SetNext(prev, id)
				s.SetHigh(prev, level[off].sep)
				if err := t.pages.Unpin(prevID, true); err != nil {
					return err
				}
			}
			next = append(next, levelEntry{level[off].sep, id})
			prevID, prev = id, d
			off += n
		}
		if err := t.pages.Unpin(prevID, true); err != nil {
			return err
		}
		level = next
		height++
	}
	t.SetRoot(level[0].id, height)
	return nil
}

// fillLeaf formats d as an unlinked leaf holding es, flags clear.
func fillLeaf(d []byte, es []xmldoc.Element) {
	InitLeaf(d)
	for i, e := range es {
		e.Encode(LeafEntry(d, i), 0)
	}
	SetLeafCount(d, len(es))
}
