package btree

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xrtree/internal/blink"
	"xrtree/internal/bufferpool"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

func newPool(t *testing.T, pageSize, frames int) *bufferpool.Pool {
	t.Helper()
	f := pagefile.NewMem(pagefile.Options{PageSize: pageSize})
	t.Cleanup(func() { f.Close() })
	p, err := bufferpool.New(f, frames)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func elem(start uint32) xmldoc.Element {
	return xmldoc.Element{DocID: 1, Start: start, End: start + 1, Level: 1, Ref: start}
}

// collect drains the tree via a full scan.
func collect(t *testing.T, tr *Tree) []xmldoc.Element {
	t.Helper()
	it, err := tr.Scan(nil)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	defer it.Close()
	var out []xmldoc.Element
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if it.Err() != nil {
		t.Fatalf("scan error: %v", it.Err())
	}
	return out
}

func TestInsertLookupScan(t *testing.T) {
	pool := newPool(t, 256, 32)
	tr, err := New(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := rand.New(rand.NewSource(1)).Perm(1000)
	for _, k := range keys {
		if err := tr.Insert(elem(uint32(k*2 + 1))); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tr.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", tr.Len())
	}
	if tr.Height() < 3 {
		t.Errorf("Height = %d, want ≥ 3 with 256B pages", tr.Height())
	}
	for _, k := range keys {
		e, err := tr.Lookup(uint32(k*2+1), nil)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", k*2+1, err)
		}
		if e.Start != uint32(k*2+1) {
			t.Fatalf("Lookup(%d) = %v", k*2+1, e)
		}
	}
	if _, err := tr.Lookup(4, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Lookup(missing) err = %v, want ErrNotFound", err)
	}
	got := collect(t, tr)
	if len(got) != 1000 {
		t.Fatalf("scan found %d, want 1000", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Start >= got[i].Start {
			t.Fatalf("scan out of order at %d", i)
		}
	}
	if pool.PinnedCount() != 0 {
		t.Errorf("leaked pins: %d", pool.PinnedCount())
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr, _ := New(pool, 1)
	if err := tr.Insert(elem(5)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(elem(5)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert err = %v, want ErrDuplicate", err)
	}
	bad := elem(9)
	bad.DocID = 2
	if err := tr.Insert(bad); err == nil {
		t.Error("cross-DocID insert accepted")
	}
}

func TestSeekGE(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr, _ := New(pool, 1)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(elem(uint32(i*10 + 5))); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		seek uint32
		want uint32
		ok   bool
	}{
		{0, 5, true},
		{5, 5, true},
		{6, 15, true},
		{994, 995, true},
		{995, 995, true},
		{996, 0, false},
	}
	for _, tc := range cases {
		it, err := tr.SeekGE(tc.seek, nil)
		if err != nil {
			t.Fatalf("SeekGE(%d): %v", tc.seek, err)
		}
		e, ok := it.Next()
		it.Close()
		if ok != tc.ok || (ok && e.Start != tc.want) {
			t.Errorf("SeekGE(%d) = %v,%v want %d,%v", tc.seek, e.Start, ok, tc.want, tc.ok)
		}
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr, _ := New(pool, 1)
	for i := 1; i <= 50; i++ {
		tr.Insert(elem(uint32(i * 3)))
	}
	it, err := tr.Scan(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	p1, ok1 := it.Peek()
	p2, ok2 := it.Peek()
	n, ok3 := it.Next()
	if !ok1 || !ok2 || !ok3 || p1 != p2 || p1 != n {
		t.Errorf("Peek/Next disagree: %v %v %v", p1, p2, n)
	}
}

func TestRange(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr, _ := New(pool, 1)
	for i := 1; i <= 200; i++ {
		tr.Insert(elem(uint32(i)))
	}
	got, err := tr.Range(50, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0].Start != 50 || got[10].Start != 60 {
		t.Errorf("Range(50,60) returned %d elements", len(got))
	}
}

func TestDeleteSimple(t *testing.T) {
	pool := newPool(t, 256, 32)
	tr, _ := New(pool, 1)
	for i := 1; i <= 500; i++ {
		if err := tr.Insert(elem(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 500; i += 2 {
		if err := tr.Delete(uint32(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	if tr.Len() != 250 {
		t.Errorf("Len = %d, want 250", tr.Len())
	}
	for i := 1; i <= 500; i++ {
		_, err := tr.Lookup(uint32(i), nil)
		if i%2 == 1 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("Lookup(%d) after delete: %v", i, err)
		}
		if i%2 == 0 && err != nil {
			t.Fatalf("Lookup(%d): %v", i, err)
		}
	}
	if err := tr.Delete(1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(missing) err = %v, want ErrNotFound", err)
	}
}

func TestDeleteAllShrinksTree(t *testing.T) {
	pool := newPool(t, 256, 32)
	tr, _ := New(pool, 1)
	n := 300
	for i := 1; i <= n; i++ {
		if err := tr.Insert(elem(uint32(i))); err != nil {
			t.Fatal(err)
		}
		checkTree(t, tr)
	}
	hBefore := tr.Height()
	if hBefore < 2 {
		t.Fatalf("height %d too small for test", hBefore)
	}
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, k := range perm {
		if err := tr.Delete(uint32(k + 1)); err != nil {
			t.Fatalf("Delete(%d): %v", k+1, err)
		}
		checkTree(t, tr)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("Height = %d after deleting all, want 1", tr.Height())
	}
	if got := collect(t, tr); len(got) != 0 {
		t.Errorf("scan of empty tree returned %d elements", len(got))
	}
}

// TestRandomizedAgainstModel runs a random op sequence against a map model.
func TestRandomizedAgainstModel(t *testing.T) {
	for _, pageSize := range []int{256, 512} {
		pool := newPool(t, pageSize, 64)
		tr, err := New(pool, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(pageSize)))
		model := make(map[uint32]bool)
		for op := 0; op < 6000; op++ {
			k := uint32(rng.Intn(2000) + 1)
			switch {
			case rng.Intn(3) != 0: // insert
				err := tr.Insert(elem(k))
				if model[k] {
					if !errors.Is(err, ErrDuplicate) {
						t.Fatalf("op %d: duplicate insert err = %v", op, err)
					}
				} else {
					if err != nil {
						t.Fatalf("op %d: Insert(%d): %v", op, k, err)
					}
					model[k] = true
				}
			default: // delete
				err := tr.Delete(k)
				if model[k] {
					if err != nil {
						t.Fatalf("op %d: Delete(%d): %v", op, k, err)
					}
					delete(model, k)
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: Delete(missing %d) err = %v", op, k, err)
				}
			}
			checkTree(t, tr)
			if op%500 == 0 {
				verifyMatchesModel(t, tr, model)
			}
		}
		verifyMatchesModel(t, tr, model)
		if pool.PinnedCount() != 0 {
			t.Errorf("leaked pins: %d", pool.PinnedCount())
		}
	}
}

// checkTree fails the test when the tree breaks a structural invariant.
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func verifyMatchesModel(t *testing.T, tr *Tree, model map[uint32]bool) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
	}
	want := make([]uint32, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := collect(t, tr)
	if len(got) != len(want) {
		t.Fatalf("scan found %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Start != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i].Start, want[i])
		}
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	pool := newPool(t, 512, 64)
	n := 3000
	es := make([]xmldoc.Element, n)
	for i := range es {
		es[i] = elem(uint32(i*2 + 1))
	}
	tr, _ := New(pool, 1)
	if err := tr.BulkLoad(es, 1.0); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if tr.Len() != n {
		t.Errorf("Len = %d, want %d", tr.Len(), n)
	}
	got := collect(t, tr)
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("element %d mismatch: %v vs %v", i, got[i], es[i])
		}
	}
	// Bulk-loaded tree must still accept updates.
	if err := tr.Insert(elem(4)); err != nil {
		t.Fatalf("Insert after BulkLoad: %v", err)
	}
	if err := tr.Delete(1); err != nil {
		t.Fatalf("Delete after BulkLoad: %v", err)
	}
	if _, err := tr.Lookup(4, nil); err != nil {
		t.Errorf("Lookup(4): %v", err)
	}
}

func TestBulkLoadErrors(t *testing.T) {
	pool := newPool(t, 256, 16)
	tr, _ := New(pool, 1)
	unsorted := []xmldoc.Element{elem(5), elem(1)}
	if err := tr.BulkLoad(unsorted, 1.0); err == nil {
		t.Error("BulkLoad accepted unsorted input")
	}
	tr2, _ := New(pool, 1)
	tr2.Insert(elem(1))
	if err := tr2.BulkLoad([]xmldoc.Element{elem(9)}, 1.0); err == nil {
		t.Error("BulkLoad into non-empty tree accepted")
	}
	tr3, _ := New(pool, 1)
	if err := tr3.BulkLoad(nil, 1.0); err != nil {
		t.Errorf("BulkLoad(nil): %v", err)
	}
	// Every element passes Insert's check, the first one included.
	foreign := elem(1)
	foreign.DocID = 2
	for name, es := range map[string][]xmldoc.Element{
		"foreign first element": {foreign, elem(3)},
		"foreign only element":  {foreign},
	} {
		tr, _ := New(pool, 1)
		if err := tr.BulkLoad(es, 1.0); err == nil {
			t.Errorf("%s: BulkLoad accepted it", name)
		}
	}
}

func TestBulkLoadPartialFill(t *testing.T) {
	pool := newPool(t, 512, 64)
	es := make([]xmldoc.Element, 1000)
	for i := range es {
		es[i] = elem(uint32(i + 1))
	}
	full, _ := New(pool, 1)
	if err := full.BulkLoad(es, 1.0); err != nil {
		t.Fatal(err)
	}
	checkTree(t, full)
	half, _ := New(pool, 1)
	if err := half.BulkLoad(es, 0.5); err != nil {
		t.Fatal(err)
	}
	checkTree(t, half)
	got := collect(t, half)
	if len(got) != 1000 {
		t.Fatalf("half-fill scan found %d", len(got))
	}
}

func TestOpenReattaches(t *testing.T) {
	pool := newPool(t, 256, 32)
	tr, _ := New(pool, 42)
	for i := 1; i <= 100; i++ {
		e := elem(uint32(i))
		e.DocID = 42
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(pool, tr.Meta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if tr2.Len() != 100 || tr2.DocID() != 42 || tr2.Height() != tr.Height() {
		t.Errorf("reopened tree: len=%d docID=%d h=%d", tr2.Len(), tr2.DocID(), tr2.Height())
	}
	if _, err := tr2.Lookup(50, nil); err != nil {
		t.Errorf("Lookup after Open: %v", err)
	}
}

func TestCountersAttributeCosts(t *testing.T) {
	pool := newPool(t, 256, 64)
	tr, _ := New(pool, 1)
	es := make([]xmldoc.Element, 1000)
	for i := range es {
		es[i] = elem(uint32(i + 1))
	}
	tr.BulkLoad(es, 1.0)

	var c metrics.Counters
	it, err := tr.SeekGE(500, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatal("unexpected end")
		}
	}
	it.Close()
	if c.ElementsScanned != 10 {
		t.Errorf("ElementsScanned = %d, want 10", c.ElementsScanned)
	}
	if c.IndexNodeReads == 0 {
		t.Error("IndexNodeReads = 0, want > 0 for SeekGE descent")
	}
}

// TestSequentialAndReverseInsert covers the classic split-pattern edge cases.
func TestSequentialAndReverseInsert(t *testing.T) {
	for name, order := range map[string]func(i, n int) uint32{
		"ascending":  func(i, n int) uint32 { return uint32(i + 1) },
		"descending": func(i, n int) uint32 { return uint32(n - i) },
	} {
		pool := newPool(t, 256, 64)
		tr, _ := New(pool, 1)
		n := 1000
		for i := 0; i < n; i++ {
			if err := tr.Insert(elem(order(i, n))); err != nil {
				t.Fatalf("%s Insert %d: %v", name, i, err)
			}
		}
		got := collect(t, tr)
		if len(got) != n {
			t.Fatalf("%s: scan found %d", name, len(got))
		}
		for i := range got {
			if got[i].Start != uint32(i+1) {
				t.Fatalf("%s: scan[%d] = %d", name, i, got[i].Start)
			}
		}
	}
}

// TestCheckInvariantsDetectsCorruption breaks one backbone invariant at a
// time on a healthy tree and expects the checker to report it.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	es := make([]xmldoc.Element, 200)
	for i := range es {
		es[i] = elem(uint32(2*i + 1))
	}
	for name, corrupt := range map[string]func(leaf []byte){
		"high key":  func(leaf []byte) { blink.SetLeafHigh(leaf, blink.LeafHigh(leaf)+1) },
		"prev link": func(leaf []byte) { blink.SetLeafPrev(leaf, blink.LeafNext(leaf)) },
		"unsorted": func(leaf []byte) {
			e, _ := blink.LeafElem(leaf, 0)
			blink.RemoveLeafEntry(leaf, 0, blink.LeafCount(leaf))
			blink.InsertLeafEntry(leaf, 1, blink.LeafCount(leaf), e, 0)
		},
		"count": func(leaf []byte) { blink.RemoveLeafEntry(leaf, 0, blink.LeafCount(leaf)) },
	} {
		pool := newPool(t, 256, 32)
		tr, _ := New(pool, 1)
		if err := tr.BulkLoad(es, 1.0); err != nil {
			t.Fatal(err)
		}
		checkTree(t, tr)
		// Corrupt the first leaf with neighbours on both sides.
		for id := pagefile.PageID(1); int(id) < pool.File().NumPages(); id++ {
			data, err := pool.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			inner := id != tr.Meta() && blink.IsLeaf(data) &&
				blink.LeafPrev(data) != pagefile.InvalidPage && blink.LeafNext(data) != pagefile.InvalidPage
			if inner {
				corrupt(data)
			}
			pool.Unpin(id, inner)
			if inner {
				break
			}
		}
		if err := tr.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants accepted a corrupted tree", name)
		} else if !strings.HasPrefix(err.Error(), "btree: ") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}
}
