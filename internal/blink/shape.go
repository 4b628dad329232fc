package blink

import (
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
)

// Shape is the layout of one tree's internal pages. Both trees share the
// start of the header — type u8 at 0, key count u16 at 2, child0 u32 at 4
// — and begin every entry with key u32 | child u32 (the child holding keys
// ≥ key); the rest is declared here. Each tree package declares its Shape
// once, as a package-level value:
//
//	btree: Header 16, EntrySize 8,  OffNext 8,  OffHigh 12
//	core:  Header 24, EntrySize 20, OffNext 16, OffHigh 20
//
// The write layer moves entries as raw EntrySize bytes, so it carries the
// owner's own fields along without knowing them. A fresh page or entry
// starts those fields at zero, which is InvalidPage for a page link.
type Shape struct {
	Type      byte // page type byte
	Header    int  // header size; entry 0 starts here
	EntrySize int  // entry width
	OffNext   int  // offset of the right-sibling link
	OffHigh   int  // offset of the B-link high key
}

const (
	offIntCount  = 2
	offIntChild0 = 4
)

// Init formats data as an empty internal page with no right sibling.
func (s *Shape) Init(data []byte) {
	clear(data[:s.Header])
	data[0] = s.Type
	s.SetNext(data, pagefile.InvalidPage)
}

func (s *Shape) Count(d []byte) int                   { return int(le.Uint16(d[offIntCount:])) }
func (s *Shape) SetCount(d []byte, n int)             { le.PutUint16(d[offIntCount:], uint16(n)) }
func (s *Shape) Next(d []byte) pagefile.PageID        { return pagefile.PageID(le.Uint32(d[s.OffNext:])) }
func (s *Shape) SetNext(d []byte, id pagefile.PageID) { le.PutUint32(d[s.OffNext:], uint32(id)) }
func (s *Shape) High(d []byte) uint32                 { return le.Uint32(d[s.OffHigh:]) }
func (s *Shape) SetHigh(d []byte, k uint32)           { le.PutUint32(d[s.OffHigh:], k) }

// Entry returns the bytes of entry i.
func (s *Shape) Entry(d []byte, i int) []byte {
	off := s.Header + i*s.EntrySize
	return d[off : off+s.EntrySize]
}

func (s *Shape) Key(d []byte, i int) uint32       { return le.Uint32(d[s.Header+i*s.EntrySize:]) }
func (s *Shape) SetKey(d []byte, i int, k uint32) { le.PutUint32(d[s.Header+i*s.EntrySize:], k) }

// Child returns child pointer i (0..count). Child 0 is in the header;
// child i > 0 is the right child of entry i-1.
func (s *Shape) Child(d []byte, i int) pagefile.PageID {
	if i == 0 {
		return pagefile.PageID(le.Uint32(d[offIntChild0:]))
	}
	return pagefile.PageID(le.Uint32(d[s.Header+(i-1)*s.EntrySize+4:]))
}

func (s *Shape) SetChild(d []byte, i int, id pagefile.PageID) {
	if i == 0 {
		le.PutUint32(d[offIntChild0:], uint32(id))
		return
	}
	le.PutUint32(d[s.Header+(i-1)*s.EntrySize+4:], uint32(id))
}

// Search returns the child index to follow for key: the number of
// separators ≤ key (child 0 when every separator exceeds key).
func (s *Shape) Search(d []byte, key uint32) int {
	lo, hi := 0, s.Count(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Key(d, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fresh writes entry bytes b as a new (key, child) pair, the owner's
// fields past them zeroed.
func fresh(b []byte, key uint32, child pagefile.PageID) {
	le.PutUint32(b, key)
	le.PutUint32(b[4:], uint32(child))
	clear(b[8:])
}

// InsertEntry shifts entries ci.. of a page with m keys one slot right and
// writes (key, child) as fresh entry ci; the caller guarantees room for
// one more.
func (s *Shape) InsertEntry(d []byte, ci, m int, key uint32, child pagefile.PageID) {
	start := s.Header + ci*s.EntrySize
	end := s.Header + m*s.EntrySize
	copy(d[start+s.EntrySize:end+s.EntrySize], d[start:end])
	fresh(s.Entry(d, ci), key, child)
	s.SetCount(d, m+1)
}

// RemoveEntry deletes key li and the child to its right from a page with
// m keys.
func (s *Shape) RemoveEntry(d []byte, li, m int) {
	start := s.Header + li*s.EntrySize
	end := s.Header + m*s.EntrySize
	copy(d[start:], d[start+s.EntrySize:end])
	s.SetCount(d, m-1)
}

// Move is the outcome of one descent step.
type Move int

const (
	// Land: the page is the leaf that covers the key.
	Land Move = iota
	// Right: the key is at or beyond the page's high key — a concurrent
	// split moved its range — so the descent follows the right link.
	Right
	// Down: the page is an internal node covering the key; the descent
	// follows the child.
	Down
	// Bad: the page is neither a leaf nor an internal page of this shape
	// (it was recycled under a racing reader, or the file is corrupt).
	Bad
)

// Step is one B-link descent step toward key from page d, which the
// caller holds under its shared page latch (as a private copy or a pinned
// frame). It returns the page to visit next — the right sibling for Right,
// the child for Down — and counts d as a leaf or index-node read in c. The
// copy descent, the XR-tree's pinned ancestor descent and PrefetchGE all
// advance by it.
func (s *Shape) Step(d []byte, key uint32, c *metrics.Counters) (pagefile.PageID, Move) {
	if IsLeaf(d) {
		addLeaf(c)
		if next := LeafNext(d); moveRight(LeafHigh(d), next, key) {
			return next, Right
		}
		return pagefile.InvalidPage, Land
	}
	if d[0] != s.Type {
		return pagefile.InvalidPage, Bad
	}
	addNode(c)
	if next := s.Next(d); moveRight(s.High(d), next, key) {
		return next, Right
	}
	return s.Child(d, s.Search(d, key)), Down
}

// The add* helpers attribute costs to an explicit, nil-able counter set,
// so concurrent readers never share mutable counter state.
func addNode(c *metrics.Counters) {
	if c != nil {
		c.IndexNodeReads++
	}
}

func addLeaf(c *metrics.Counters) {
	if c != nil {
		c.LeafReads++
	}
}

func addScan(c *metrics.Counters, n int64) {
	if c != nil {
		c.ElementsScanned += n
	}
}
