package xrtree_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xrtree"
)

func TestCatalogPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.db")
	store, err := xrtree.CreateStore(path, xrtree.StoreOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xrtree.ParseXML(strings.NewReader(queryXML), 1)
	if err != nil {
		t.Fatal(err)
	}
	emps, err := store.IndexElements(doc.ElementsByTag("employee"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet("employee", emps); err != nil {
		t.Fatalf("SaveSet: %v", err)
	}
	if err := store.SaveSet("name", names); err != nil {
		t.Fatalf("SaveSet: %v", err)
	}
	var wantPairs []xrtree.Pair
	wantPairs, err = joinPairs(xrtree.AlgXRStack, xrtree.AncestorDescendant, emps, names)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and rerun the join from the catalog alone.
	store2, err := xrtree.OpenStore(path, xrtree.StoreOptions{})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	defer store2.Close()
	setNames, err := store2.SetNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(setNames) != 2 {
		t.Fatalf("SetNames = %v", setNames)
	}
	emps2, err := store2.OpenSet("employee")
	if err != nil {
		t.Fatalf("OpenSet(employee): %v", err)
	}
	names2, err := store2.OpenSet("name")
	if err != nil {
		t.Fatalf("OpenSet(name): %v", err)
	}
	if emps2.Len() != emps.Len() || names2.Len() != names.Len() {
		t.Fatalf("reopened sizes: %d, %d", emps2.Len(), names2.Len())
	}
	for _, alg := range []xrtree.Algorithm{xrtree.AlgNoIndex, xrtree.AlgBPlus, xrtree.AlgXRStack} {
		got, err := joinPairs(alg, xrtree.AncestorDescendant, emps2, names2)
		if err != nil {
			t.Fatalf("%s after reopen: %v", alg, err)
		}
		if len(got) != len(wantPairs) {
			t.Errorf("%s after reopen: %d pairs, want %d", alg, len(got), len(wantPairs))
		}
	}
	// The XR-tree survives with invariants intact.
	xr, err := emps2.XRTree()
	if err != nil {
		t.Fatal(err)
	}
	if err := xr.CheckInvariants(); err != nil {
		t.Errorf("reopened XR-tree invariants: %v", err)
	}
}

func TestCatalogReplaceAndErrors(t *testing.T) {
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	doc, _ := xrtree.ParseXML(strings.NewReader(queryXML), 1)
	set, err := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet("s", set); err != nil {
		t.Fatal(err)
	}
	// Re-saving under the same name replaces, not duplicates.
	if err := store.SaveSet("s", set); err != nil {
		t.Fatal(err)
	}
	names, err := store.SetNames()
	if err != nil || len(names) != 1 {
		t.Fatalf("SetNames = %v, %v", names, err)
	}
	if _, err := store.OpenSet("missing"); !errors.Is(err, xrtree.ErrUnknownSet) {
		t.Errorf("OpenSet(missing) err = %v", err)
	}
	if err := store.SaveSet("", set); err == nil {
		t.Error("empty name accepted")
	}
}

func TestCatalogManyEntriesSpanPages(t *testing.T) {
	// Enough entries to overflow one 1 KiB catalog page.
	store, err := xrtree.NewMemStore(xrtree.StoreOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	doc, _ := xrtree.ParseXML(strings.NewReader(queryXML), 1)
	set, err := store.IndexElements(doc.ElementsByTag("name"), xrtree.IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	for i := 0; i < n; i++ {
		if err := store.SaveSet(fmt.Sprintf("set-%03d-with-a-longish-name", i), set); err != nil {
			t.Fatalf("SaveSet %d: %v", i, err)
		}
	}
	names, err := store.SetNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != n {
		t.Fatalf("SetNames = %d entries, want %d", len(names), n)
	}
	if _, err := store.OpenSet("set-059-with-a-longish-name"); err != nil {
		t.Errorf("OpenSet across pages: %v", err)
	}
	// Shrink the catalog back below one page; trailing pages must clear.
	if err := store.SaveSet("only", set); err != nil {
		t.Fatal(err)
	}
	_ = names
}

func TestOpenSetWithPartialPaths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.db")
	store, err := xrtree.CreateStore(path, xrtree.StoreOptions{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xrtree.ParseXML(strings.NewReader(queryXML), 1)
	set, err := store.IndexElements(doc.ElementsByTag("employee"), xrtree.IndexOptions{
		SkipList: true, SkipBTree: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSet("xr-only", set); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := xrtree.OpenStore(path, xrtree.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	re, err := store2.OpenSet("xr-only")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.FindAncestors(5, nil); err != nil {
		t.Errorf("FindAncestors on reopened xr-only set: %v", err)
	}
	// The missing access paths still error cleanly.
	other, err := store2.OpenSet("xr-only")
	if err != nil {
		t.Fatal(err)
	}
	if err := xrtree.Join(xrtree.AlgNoIndex, xrtree.AncestorDescendant, other, other, nil, nil); !errors.Is(err, xrtree.ErrNoAccessPath) {
		t.Errorf("NoIndex join without lists err = %v", err)
	}
}
