package main

// Seeded inputs. Everything comes from internal/datagen and
// internal/workload; the only shaping done here is cutting a generated
// corpus to an exact element count, because the generators draw sizes at
// random and a benchmark compared across seeds needs the same amount of
// work on each.

import (
	"fmt"
	"sort"

	"xrtree/internal/datagen"
	"xrtree/internal/xmldoc"
)

// deptSets generates a Department corpus and returns its first n employee
// elements (the nested ancestor set) with the name elements that start
// inside their span (the descendant set). gap is the region-numbering gap;
// updates need room between positions.
func deptSets(seed int64, n int, gap uint32) (emps, names []xmldoc.Element, err error) {
	// A department holds ~800 employees on average; start with twice the
	// need and double until the draw is large enough.
	for depts := n/400 + 2; ; depts *= 2 {
		doc, err := datagen.Department(datagen.DeptConfig{Seed: seed, DocID: 1, Departments: depts, Employees: 25, PositionGap: gap})
		if err != nil {
			return nil, nil, err
		}
		emps = doc.ElementsByTag("employee")
		if len(emps) < n {
			continue
		}
		emps = emps[:n]
		names = doc.ElementsByTag("name")
		cut := emps[n-1].End
		names = names[:sort.Search(len(names), func(i int) bool { return names[i].Start > cut })]
		return emps, names, nil
	}
}

// deptDocNear generates a small Department document whose employee count
// lies in [lo, hi], trying successive generator seeds derived from seed.
// Document sizes are heavy-tailed, so without this the collection joins
// would differ several-fold in work from one seed to the next.
func deptDocNear(seed int64, docID uint32, departments, lo, hi int) (*xmldoc.Document, error) {
	for try := int64(0); try < 10000; try++ {
		doc, err := datagen.Department(datagen.DeptConfig{
			Seed: seed*1_000_003 + int64(docID)*10_007 + try, DocID: docID,
			Departments: departments, Employees: 4, PositionGap: 4,
		})
		if err != nil {
			return nil, err
		}
		if n := len(doc.ElementsByTag("employee")); n >= lo && n <= hi {
			return doc, nil
		}
	}
	return nil, fmt.Errorf("no Department document with %d..%d employees near seed %d", lo, hi, seed)
}

// nesting is the containment structure of a start-sorted element set,
// the probe oracle: for element i, its strict ancestors in the set are
// the parent chain, and its strict descendants are elements i+1..last[i].
type nesting struct {
	parent   []int32  // -1 at top level
	last     []int32  // index of the last descendant (i itself when none)
	ancCount []int32  // length of the parent chain
	ancSum   []uint64 // sum of the ancestors' start positions
	startSum []uint64 // prefix sums of start positions, for descendant ranges
}

func buildNesting(es []xmldoc.Element) nesting {
	n := nesting{
		parent: make([]int32, len(es)), last: make([]int32, len(es)),
		ancCount: make([]int32, len(es)), ancSum: make([]uint64, len(es)),
		startSum: make([]uint64, len(es)+1),
	}
	var stack []int32
	closeTop := func(upto int32) {
		top := stack[len(stack)-1]
		n.last[top] = upto
		stack = stack[:len(stack)-1]
	}
	for i, e := range es {
		for len(stack) > 0 && es[stack[len(stack)-1]].End < e.Start {
			closeTop(int32(i - 1))
		}
		n.parent[i] = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			n.parent[i] = p
			n.ancCount[i] = n.ancCount[p] + 1
			n.ancSum[i] = n.ancSum[p] + uint64(es[p].Start)
		}
		stack = append(stack, int32(i))
		n.startSum[i+1] = n.startSum[i] + uint64(e.Start)
	}
	for len(stack) > 0 {
		closeTop(int32(len(es) - 1))
	}
	return n
}
