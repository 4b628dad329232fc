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

// Space walks the tree and reports its page footprint. Read-only; it
// takes the write latch so the walk sees a structurally quiescent tree.
func (t *Tree) Space() (SpaceStats, error) {
	t.wlatch.Lock()
	defer t.wlatch.Unlock()
	var st SpaceStats
	root, h := t.Root()
	if err := t.spaceWalk(root, h, &st); err != nil {
		return SpaceStats{}, err
	}
	return st, nil
}

func (t *Tree) spaceWalk(id pagefile.PageID, height int, st *SpaceStats) error {
	data, err := t.fetch(id)
	if err != nil {
		return err
	}
	if height == 1 {
		st.LeafPages++
		return t.unpin(id, false)
	}
	st.InternalNodes++
	pages := 0
	p := stabHead(data)
	for p != pagefile.InvalidPage {
		sd, err := t.fetchStab(p)
		if err != nil {
			t.unpin(id, false)
			return err
		}
		pages++
		st.StabEntries += stabCount(sd)
		next := stabNext(sd)
		if err := t.unpin(p, false); err != nil {
			t.unpin(id, false)
			return err
		}
		p = next
	}
	st.StabPages += pages
	st.StabPagesPerNode = append(st.StabPagesPerNode, pages)
	if pages > st.MaxStabPages {
		st.MaxStabPages = pages
	}
	m := intShape.Count(data)
	children := make([]pagefile.PageID, 0, m+1)
	for i := 0; i <= m; i++ {
		children = append(children, intShape.Child(data, i))
	}
	if err := t.unpin(id, false); err != nil {
		return err
	}
	for _, c := range children {
		if err := t.spaceWalk(c, height-1, st); err != nil {
			return err
		}
	}
	return nil
}

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
