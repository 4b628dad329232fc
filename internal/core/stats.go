package core

// Statistics walkers for the §3.3 stab-list size study and the space
// accounting in EXPERIMENTS.md.

import (
	"xrtree/internal/pagefile"
)

// SpaceStats describes the tree's page footprint.
type SpaceStats struct {
	LeafPages     int
	InternalNodes int
	StabPages     int // total stab-list pages
	StabEntries   int // total elements held in stab lists
	// StabPagesPerNode holds, for every internal node, the length of its
	// stab-list chain in pages (zero entries included).
	StabPagesPerNode []int
	// MaxStabPages is the longest stab-list chain.
	MaxStabPages int
}

// AvgStabPages returns the mean stab-chain length over internal nodes.
func (s SpaceStats) AvgStabPages() float64 {
	if s.InternalNodes == 0 {
		return 0
	}
	return float64(s.StabPages) / float64(s.InternalNodes)
}

// Space walks the tree and reports its page footprint: the invariant walk
// of CheckInvariants, run with a census in place of the checker. Read-only;
// it takes the write latch so the walk sees a structurally quiescent tree.
func (t *Tree) Space() (SpaceStats, error) {
	t.w.Lock()
	defer t.w.Unlock()
	c := census{t: t}
	if err := t.w.Walk(&c); err != nil {
		return SpaceStats{}, err
	}
	return c.st, nil
}

// census is the blink.Checker behind Space: it counts pages and stab
// entries and adds no check of its own to the backbone walk's.
type census struct {
	t  *Tree
	st SpaceStats
}

func (c *census) Leaf([]byte, []uint32) error {
	c.st.LeafPages++
	return nil
}

func (c *census) Node(_ pagefile.PageID, node []byte, _ int, _ []uint32) error {
	pages := 0
	_, _, err := c.t.walkChain(stabHead(node), func(_ pagefile.PageID, data []byte) (bool, error) {
		pages++
		c.st.StabEntries += stabCount(data)
		return false, nil
	})
	c.st.InternalNodes++
	c.st.StabPages += pages
	c.st.StabPagesPerNode = append(c.st.StabPagesPerNode, pages)
	c.st.MaxStabPages = max(c.st.MaxStabPages, pages)
	return err
}

func (c *census) Done() error { return nil }

// MaxNesting returns the deepest ancestor chain among the indexed elements
// (the h_d of the S_max = 2·h_d bound in §3.3), computed by a leaf sweep.
func (t *Tree) MaxNesting() (int, error) {
	it, err := t.Scan(nil)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	var stack []uint32 // open region ends
	max := 0
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		for len(stack) > 0 && stack[len(stack)-1] < e.Start {
			stack = stack[:len(stack)-1]
		}
		stack = append(stack, e.End)
		if len(stack) > max {
			max = len(stack)
		}
	}
	return max, it.Err()
}
