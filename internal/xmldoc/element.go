// Package xmldoc models XML documents as ordered trees of region-encoded
// elements, following §2.1 of the paper. Each element carries a
// (DocID, Start, End, Level) tuple such that element u is an ancestor of v
// iff u.Start < v.Start < u.End (regions never partially overlap for
// strictly nested XML). The package provides:
//
//   - a streaming parser over encoding/xml that assigns region codes by
//     depth-first traversal,
//   - a direct tree builder used by the synthetic data generator,
//   - element-set extraction by tag name (the "tag index" of the
//     set-at-a-time strategy), and
//   - the two alternative numbering schemes surveyed in §2.1 — the durable
//     (order, size) scheme and Dietz's (preorder, postorder) scheme — with
//     conversions, so all three can be cross-checked in tests.
package xmldoc

import (
	"encoding/binary"
	"fmt"
	"sort"
)

var le = binary.LittleEndian

// Position is a location in the document's region numbering space.
type Position = uint32

// Element is one region-encoded XML element. It is the unit every index
// and join in this repository operates on.
type Element struct {
	DocID uint32   // document identifier
	Start Position // region start, assigned at the opening tag
	End   Position // region end, assigned at the closing tag
	Level uint16   // depth in the tree; the root is level 1
	Ref   uint32   // opaque record locator: ordinal of the element in document order
}

// EncodedSize is the fixed on-page size of one element entry:
// start u32 | end u32 | level u16 | flags u16 | ref u32.
const EncodedSize = 16

// Flag bits stored in the on-page flags field.
const (
	// FlagInStabList marks a leaf entry that also appears in the stab list
	// of some internal XR-tree node (Definition 4, property 6).
	FlagInStabList uint16 = 1 << 0
)

// Encode writes e into b, which must be at least EncodedSize bytes.
// DocID is not encoded: element sets are stored per document set and the
// DocID travels out of band, as in the paper's (DocId, start, end, level)
// lists that are grouped by document.
func (e Element) Encode(b []byte, flags uint16) {
	le.PutUint32(b[0:], e.Start)
	le.PutUint32(b[4:], e.End)
	le.PutUint16(b[8:], e.Level)
	le.PutUint16(b[10:], flags)
	le.PutUint32(b[12:], e.Ref)
}

// DecodeElement reads an element entry written by Encode.
func DecodeElement(b []byte) (Element, uint16) {
	return Element{
		Start: le.Uint32(b[0:]),
		End:   le.Uint32(b[4:]),
		Level: le.Uint16(b[8:]),
		Ref:   le.Uint32(b[12:]),
	}, le.Uint16(b[10:])
}

// IsAncestorOf reports whether e is a (strict) ancestor of d under region
// encoding: e.Start < d.Start < e.End. Both must be from the same document.
func (e Element) IsAncestorOf(d Element) bool {
	return e.DocID == d.DocID && e.Start < d.Start && d.Start < e.End
}

// IsParentOf reports whether e is the parent of d: ancestor with the level
// condition of §2.2 (ai.level = dj.level − 1).
func (e Element) IsParentOf(d Element) bool {
	return e.IsAncestorOf(d) && e.Level == d.Level-1
}

// Stabs reports whether position k stabs e (Definition 1): s ≤ k ≤ e.
func (e Element) Stabs(k Position) bool {
	return e.Start <= k && k <= e.End
}

// Contains reports whether e's region contains f's region entirely.
func (e Element) Contains(f Element) bool {
	return e.Start <= f.Start && f.End <= e.End
}

// String renders the element the way the paper's figures do, e.g. "(2, 15)".
func (e Element) String() string {
	return fmt.Sprintf("(%d, %d)", e.Start, e.End)
}

// CompareStart orders elements by Start (the sort order of every element
// list in the paper's join algorithms).
func CompareStart(a, b Element) int {
	switch {
	case a.Start < b.Start:
		return -1
	case a.Start > b.Start:
		return 1
	default:
		return 0
	}
}

// SortByStart sorts elements by ascending Start in place.
func SortByStart(es []Element) {
	sort.Slice(es, func(i, j int) bool { return es[i].Start < es[j].Start })
}

// ValidateStrictNesting checks that a start-sorted element list satisfies
// the strictly-nested property: any two regions are disjoint or one
// contains the other. It returns the first violating pair, if any.
func ValidateStrictNesting(es []Element) error {
	// A stack-based sweep: maintain the chain of currently open regions.
	var stack []Element
	for i, e := range es {
		if i > 0 && es[i-1].Start >= e.Start {
			return fmt.Errorf("xmldoc: elements not sorted by start at %d: %v then %v", i, es[i-1], e)
		}
		if e.End <= e.Start {
			return fmt.Errorf("xmldoc: degenerate region %v", e)
		}
		for len(stack) > 0 && stack[len(stack)-1].End < e.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if !(top.Contains(e)) {
				return fmt.Errorf("xmldoc: regions partially overlap: %v and %v", top, e)
			}
		}
		stack = append(stack, e)
	}
	return nil
}
