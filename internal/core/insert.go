package core

// Algorithm 1 (§4.1): insertion with stab-list maintenance. The B+-tree
// insert itself — descent, leaf and node splits in the B-link order, root
// growth — is the write layer of internal/blink; this file holds the
// stab steps the layer calls at the points the paper names.
// On the way down, the new element joins the stab list of the highest
// internal node that stabs it (I1). A leaf split gives up a new separator
// together with StabSet', the elements newly stabbed by it (I22); a node
// split splits its stab-list chain too and likewise gives up the promoted
// key with the elements it stabs (I32, Figure 5). A root split grows the
// tree (I4). Each step runs inside the latch bracket of the node it
// edits; a node's latch covers its stab chain. An insert the leaf rejects
// (a duplicate start) unhomes the element again on the way back up.

import (
	"fmt"

	"xrtree/internal/blink"
	"xrtree/internal/xmldoc"
)

// stabHooks is the XR-tree's blink.Hooks: the stab-list steps of
// Algorithms 1 and 2 and the owner steps around them. Its state — the
// StabSet' rising between levels, a rebalance's extracted separator PSL —
// lives in the Tree, guarded by the writer latch.
type stabHooks struct{ *Tree }

// Stabs reports whether a key of node d stabs e (I1).
func (h stabHooks) Stabs(d []byte, e xmldoc.Element) bool {
	return primaryKeyIndex(d, e.Start, e.End) >= 0
}

// Home adds e to node d's stab list (I1).
func (h stabHooks) Home(d []byte, e xmldoc.Element) error { return h.stabInsertElement(d, e) }

// SplitLeaf flags the elements of either half that sep newly stabs and
// sets them rising to the parent as StabSet' (I22). The flags turn before
// the elements reach the parent's chain: a stab move is in flight until
// the enclosing Insert commits.
func (h stabHooks) SplitLeaf(left, right []byte, sep uint32) {
	h.beginStabMove()
	h.rising = nil
	for _, d := range [][]byte{left, right} {
		for i := range blink.LeafCount(d) {
			el, fl := blink.LeafElem(d, i)
			if fl&xmldoc.FlagInStabList == 0 && el.Start <= sep && sep <= el.End {
				blink.SetLeafFlags(d, i, fl|xmldoc.FlagInStabList)
				h.rising = append(h.rising, stabEntry{key: sep, start: el.Start, end: el.End, ref: el.Ref, level: el.Level})
			}
		}
	}
}

// Promoted homes the rising StabSet' in node d, which just gained key ci
// (I32 without a split). Existing entries now primarily stabbed by the new
// key first move into its PSL — the successor PSL's stabbed prefix.
func (h stabHooks) Promoted(d []byte, ci int) error {
	if err := h.rekeyStabbedPrefix(d, ci); err != nil {
		return err
	}
	return h.reinsertAll(d, h.rising)
}

// PreSplit extracts PSL(mid) from node d before the split lays it out:
// those elements rise with the promoted key. When mid is the incoming key
// its PSL is empty.
func (h stabHooks) PreSplit(d []byte, mid uint32) (err error) {
	h.beginStabMove()
	h.splitOut = nil
	if j := keyIndex(d, mid); j >= 0 {
		h.splitOut, err = h.extractPSL(d, j)
	}
	return err
}

// PostSplit splits the stab chain between the halves (Figure 5(a)), homes
// the incoming StabSet' in the half holding the incoming key — unless that
// key itself rose — and collects everything the promoted key stabs in
// either half (Figure 5(b)) as the next level's StabSet'.
func (h stabHooks) PostSplit(left, right []byte, mid, key uint32) error {
	if err := h.splitStabChain(left, right, mid); err != nil {
		return err
	}
	out := h.splitOut
	if key == mid {
		out = append(out, h.rising...)
	} else {
		half := left
		if key > mid {
			half = right
		}
		if ki := keyIndex(half, key); ki >= 0 {
			if err := h.rekeyStabbedPrefix(half, ki); err != nil {
				return err
			}
		}
		if err := h.reinsertAll(half, h.rising); err != nil {
			return err
		}
	}
	for _, half := range [][]byte{left, right} {
		ext, err := h.extractStabbedBy(half, mid)
		if err != nil {
			return err
		}
		out = append(out, ext...)
	}
	h.rising = out
	return nil
}

// GrowRoot homes the rising StabSet' in a new root (I4).
func (h stabHooks) GrowRoot(root []byte) error {
	return h.reinsertAll(root, h.rising)
}

// reinsertAll homes entries in node d, every one of which some key of d
// must stab.
func (t *Tree) reinsertAll(d []byte, entries []stabEntry) error {
	rejects, err := t.stabReinsertAll(d, entries)
	if err == nil && len(rejects) > 0 {
		err = fmt.Errorf("%w: %d stab entries not stabbed by the node taking them", ErrCorrupt, len(rejects))
	}
	return err
}
