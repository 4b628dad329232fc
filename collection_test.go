package xrtree_test

import (
	"strings"
	"testing"

	"xrtree"
)

const collDocA = `<dept><emp><name/><emp><name/></emp></emp></dept>`
const collDocB = `<dept><emp><name/></emp><emp><name/></emp></dept>`

func newCollection(t *testing.T) (*xrtree.Collection, *xrtree.Store) {
	t.Helper()
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	coll := store.NewCollection()
	for id, xml := range map[uint32]string{1: collDocA, 2: collDocB} {
		doc, err := xrtree.ParseXML(strings.NewReader(xml), id)
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.Add(doc); err != nil {
			t.Fatal(err)
		}
	}
	return coll, store
}

func TestCollectionJoinRespectsDocID(t *testing.T) {
	coll, _ := newCollection(t)
	if coll.Len() != 2 {
		t.Fatalf("Len = %d", coll.Len())
	}
	for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgBPlus, xrtree.AlgXRStack} {
		var pairs []xrtree.Pair
		var st xrtree.Stats
		err := coll.Join(alg, xrtree.AncestorDescendant, "emp", "name",
			func(a, d xrtree.Element) { pairs = append(pairs, xrtree.Pair{A: a, D: d}) }, &st)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// Doc A: emp(outer) contains both names (2 pairs) + emp(inner) has
		// its name (1) = 3; Doc B: 2 flat emps × 1 name = 2. Total 5.
		if len(pairs) != 5 {
			t.Errorf("%s: %d pairs, want 5", alg, len(pairs))
		}
		for _, p := range pairs {
			if p.A.DocID != p.D.DocID {
				t.Errorf("%s: cross-document pair %v × %v", alg, p.A, p.D)
			}
		}
	}
}

func TestCollectionDuplicateDocID(t *testing.T) {
	coll, _ := newCollection(t)
	doc, err := xrtree.ParseXML(strings.NewReader("<a/>"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Add(doc); err == nil {
		t.Error("duplicate DocID accepted")
	}
}

func TestCollectionQueryUnionsDocuments(t *testing.T) {
	coll, _ := newCollection(t)
	els, err := coll.QueryDocs("emp//name", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 4 {
		t.Fatalf("Query = %d results, want 4 (2 per document)", len(els))
	}
	for i := 1; i < len(els); i++ {
		if els[i-1].DocID > els[i].DocID {
			t.Error("results not grouped by DocID")
		}
	}
	if els[0].DocID != 1 || els[3].DocID != 2 {
		t.Errorf("results: %v", els)
	}
}

func TestCollectionSkipsDocsWithoutTags(t *testing.T) {
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coll := store.NewCollection()
	d1, _ := xrtree.ParseXML(strings.NewReader("<x><emp><name/></emp></x>"), 1)
	d2, _ := xrtree.ParseXML(strings.NewReader("<x><other/></x>"), 2)
	coll.Add(d1)
	coll.Add(d2)
	n := 0
	err = coll.Join(xrtree.AlgXRStack, xrtree.AncestorDescendant, "emp", "name",
		func(a, d xrtree.Element) { n++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("pairs = %d, want 1", n)
	}
}
