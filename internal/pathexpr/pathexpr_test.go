package pathexpr

import (
	"errors"
	"math/rand"
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/core"
	"xrtree/internal/datagen"
	"xrtree/internal/metrics"
	"xrtree/internal/pagefile"
	"xrtree/internal/xmldoc"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"employee//name", "//employee//name", false},
		{"//employee//name", "//employee//name", false},
		{"/departments/department", "/departments/department", false},
		{"a/b//c/d", "//a/b//c/d", false},
		{"  a//b ", "//a//b", false},
		{"", "", true},
		{"a//", "", true},
		{"a///b", "", true}, // empty step between // and /
		{"a b//c", "", true},
		{"/", "", true},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error (got %v)", tc.in, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if p.String() != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, p.String(), tc.want)
		}
	}
}

func TestParseAxes(t *testing.T) {
	p, err := Parse("a/b//c")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	if p.Steps[0].Axis != Descendant || p.Steps[1].Axis != Child || p.Steps[2].Axis != Descendant {
		t.Errorf("axes = %v %v %v", p.Steps[0].Axis, p.Steps[1].Axis, p.Steps[2].Axis)
	}
}

// docProvider indexes a document's tags in XR-trees for Evaluate.
type docProvider struct {
	t     *testing.T
	doc   *xmldoc.Document
	pool  *bufferpool.Pool
	trees map[string]*core.Tree
}

func newDocProvider(t *testing.T, doc *xmldoc.Document) *docProvider {
	t.Helper()
	f := pagefile.NewMem(pagefile.Options{PageSize: 1024})
	t.Cleanup(func() { f.Close() })
	pool, err := bufferpool.New(f, 256)
	if err != nil {
		t.Fatal(err)
	}
	return &docProvider{t: t, doc: doc, pool: pool, trees: make(map[string]*core.Tree)}
}

func (p *docProvider) XRTreeForTag(tag string) (*core.Tree, error) {
	if tr, ok := p.trees[tag]; ok {
		return tr, nil
	}
	els := p.doc.ElementsByTag(tag)
	if tag == "*" {
		els = p.doc.AllElements()
	}
	if len(els) == 0 {
		p.trees[tag] = nil
		return nil, nil
	}
	tr, err := core.New(p.pool, p.doc.DocID, core.Options{})
	if err != nil {
		return nil, err
	}
	if err := tr.BulkLoad(els, 1.0); err != nil {
		return nil, err
	}
	p.trees[tag] = tr
	return tr, nil
}

func sameStarts(t *testing.T, what string, got, want []xmldoc.Element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Start != want[i].Start {
			t.Fatalf("%s: result %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestEvaluateOnDepartmentCorpus(t *testing.T) {
	doc, err := datagen.Department(datagen.DeptConfig{Seed: 3, DocID: 1, Departments: 8, Employees: 10})
	if err != nil {
		t.Fatal(err)
	}
	prov := newDocProvider(t, doc)
	for _, expr := range []string{
		"employee//name",
		"employee/name",
		"department//employee",
		"departments/department/employee/name",
		"department//employee//employee",
		"department/employee/employee/name",
		"employee//employee/email",
		"department/*/name",
		"*//email",
		"employee/*",
	} {
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		var c metrics.Counters
		got, err := Evaluate(p, prov, &c)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", expr, err)
		}
		want := Reference(p, doc)
		sameStarts(t, expr, got, want)
	}
}

func TestEvaluateEmptyCases(t *testing.T) {
	doc, err := xmldoc.ParseString("<a><b/></a>", xmldoc.ParseOptions{DocID: 1})
	if err != nil {
		t.Fatal(err)
	}
	prov := newDocProvider(t, doc)
	p, _ := Parse("a//nosuch")
	got, err := Evaluate(p, prov, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("missing tag matched %d elements", len(got))
	}
	p2, _ := Parse("nosuch//b")
	got, err = Evaluate(p2, prov, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("missing first step: %v, %v", got, err)
	}
	if _, err := Evaluate(Path{}, prov, nil); !errors.Is(err, ErrEmptyPath) {
		t.Errorf("empty path err = %v", err)
	}
}

func TestEvaluateRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Random documents over a small tag alphabet and random 2-4 step paths.
	tags := []string{"w", "x", "y", "z"}
	for trial := 0; trial < 15; trial++ {
		b := xmldoc.NewBuilder(1, 1)
		b.Open("root")
		count := 0
		var build func(depth int)
		build = func(depth int) {
			count++
			b.Open(tags[rng.Intn(len(tags))])
			kids := rng.Intn(4)
			if depth > 8 {
				kids = 0
			}
			for i := 0; i < kids && count < 300; i++ {
				build(depth + 1)
			}
			b.Close()
		}
		for count < 300 {
			build(1)
		}
		b.Close()
		doc, err := b.Document()
		if err != nil {
			t.Fatal(err)
		}
		prov := newDocProvider(t, doc)

		steps := 2 + rng.Intn(3)
		var expr string
		for s := 0; s < steps; s++ {
			if s > 0 {
				if rng.Intn(2) == 0 {
					expr += "/"
				} else {
					expr += "//"
				}
			}
			expr += tags[rng.Intn(len(tags))]
		}
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		got, err := Evaluate(p, prov, nil)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", expr, err)
		}
		sameStarts(t, expr, got, Reference(p, doc))
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"employee[email]", "//employee[email]", false},
		{"employee[email]//name", "//employee[email]//name", false},
		{"employee[//email]", "//employee[//email]", false},
		{"a[b][c]", "//a[b][c]", false},
		{"a[b[c]]/d", "//a[b[c]]/d", false},
		{"a[b/c]", "//a[b/c]", false},
		{"a[]", "", true},
		{"a[b", "", true},
		{"a]b", "", true},
		{"[b]", "", true},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("Parse(%q) succeeded: %v", tc.in, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if p.String() != tc.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, p.String(), tc.want)
		}
	}
	// Predicate axes: default child, explicit descendant.
	p, err := Parse("a[b//c]")
	if err != nil {
		t.Fatal(err)
	}
	pred := p.Steps[0].Predicates[0]
	if pred.Steps[0].Axis != Child || pred.Steps[1].Axis != Descendant {
		t.Errorf("predicate axes = %v %v", pred.Steps[0].Axis, pred.Steps[1].Axis)
	}
}

func TestEvaluatePredicatesAgainstReference(t *testing.T) {
	// Small corpus: the brute-force oracle re-derives predicate sets per
	// candidate and is super-quadratic on nested predicates.
	doc, err := datagen.Department(datagen.DeptConfig{Seed: 13, DocID: 1, Departments: 3, Employees: 4})
	if err != nil {
		t.Fatal(err)
	}
	prov := newDocProvider(t, doc)
	for _, expr := range []string{
		"employee[email]",
		"employee[email]/name",
		"employee[//email]//name",
		"employee[employee]",
		"employee[employee[email]]/name",
		"department[employee/employee]//email",
		"employee[email][employee]",
		"employee[nosuch]",
	} {
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		got, err := Evaluate(p, prov, nil)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", expr, err)
		}
		want := Reference(p, doc)
		sameStarts(t, expr, got, want)
		if expr == "employee[email]" {
			all := Reference(Path{Steps: []Step{{Axis: Descendant, Tag: "employee"}}}, doc)
			if len(got) == 0 || len(got) >= len(all) {
				t.Errorf("predicate did not filter: %d of %d", len(got), len(all))
			}
		}
	}
}

func TestEvaluatePredicatesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tags := []string{"w", "x", "y"}
	for trial := 0; trial < 10; trial++ {
		b := xmldoc.NewBuilder(1, 1)
		b.Open("root")
		count := 0
		var build func(depth int)
		build = func(depth int) {
			count++
			b.Open(tags[rng.Intn(len(tags))])
			kids := rng.Intn(4)
			if depth > 7 {
				kids = 0
			}
			for i := 0; i < kids && count < 250; i++ {
				build(depth + 1)
			}
			b.Close()
		}
		for count < 250 {
			build(1)
		}
		b.Close()
		doc, err := b.Document()
		if err != nil {
			t.Fatal(err)
		}
		prov := newDocProvider(t, doc)
		axisStr := func() string {
			if rng.Intn(2) == 0 {
				return "/"
			}
			return "//"
		}
		// Random expression: t1[t2 axis t3] axis t4
		expr := tags[rng.Intn(3)] + "[" + tags[rng.Intn(3)] + axisStr() + tags[rng.Intn(3)] + "]" +
			axisStr() + tags[rng.Intn(3)]
		p, err := Parse(expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", expr, err)
		}
		got, err := Evaluate(p, prov, nil)
		if err != nil {
			t.Fatalf("Evaluate(%q): %v", expr, err)
		}
		sameStarts(t, expr, got, Reference(p, doc))
	}
}

func TestMemSourceFindAncestors(t *testing.T) {
	els := []xmldoc.Element{
		{DocID: 1, Start: 1, End: 100},
		{DocID: 1, Start: 2, End: 40},
		{DocID: 1, Start: 5, End: 10},
		{DocID: 1, Start: 12, End: 30},
		{DocID: 1, Start: 50, End: 90},
	}
	m := memSource{els: els}
	got, err := m.AppendAncestors(nil, 20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []xmldoc.Element{{Start: 1, End: 100}, {Start: 2, End: 40}, {Start: 12, End: 30}}
	sameStarts(t, "AppendAncestors(20)", got, want)

	got, err = m.AppendAncestors(nil, 20, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameStarts(t, "AppendAncestors(20,min=2)", got, []xmldoc.Element{{Start: 12, End: 30}})
}

// TestStepMatchesNextPeek runs one random program of moves on two
// iterators over the same in-memory list. One advances with Step, the other
// with Next then Peek; both take the same Next, Peek and in-place SeekGE
// moves in between. They must see the same elements and charge the same
// counters, past the end too; the in-place seek must land where a fresh
// memSource.SeekGE does.
func TestStepMatchesNextPeek(t *testing.T) {
	els := make([]xmldoc.Element, 400)
	for i := range els {
		els[i] = xmldoc.Element{DocID: 1, Start: uint32(3*i + 1), End: uint32(3*i + 2), Level: 1}
	}
	m := memSource{els: els}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var cs, cn metrics.Counters
		si, _ := m.Scan(&cs)
		ni, _ := m.Scan(&cn)
		s, n := si.(*memIterator), ni.(*memIterator)
		for op, ended := 0, 0; ended < 8; op++ {
			var gs, gn xmldoc.Element
			var oks, okn bool
			switch r := rng.Intn(20); {
			case r < 14 || op > 4*len(els):
				gs, oks = s.Step()
				n.Next()
				gn, okn = n.Peek()
			case r < 16:
				gs, oks = s.Next()
				gn, okn = n.Next()
			case r < 17:
				gs, oks = s.Peek()
				gn, okn = n.Peek()
			default:
				k := uint32(rng.Intn(3*len(els) + 10))
				s.SeekGE(k)
				n.SeekGE(k)
				gs, oks = s.Peek()
				gn, okn = n.Peek()
				fresh, _ := m.SeekGE(k, nil)
				if want, wok := fresh.Peek(); gs != want || oks != wok {
					t.Fatalf("seed %d: SeekGE(%d) at (%v,%v), fresh seek at (%v,%v)", seed, k, gs, oks, want, wok)
				}
			}
			if gs != gn || oks != okn {
				t.Fatalf("seed %d op %d: Step side (%v,%v), Next+Peek side (%v,%v)", seed, op, gs, oks, gn, okn)
			}
			if !oks {
				ended++
			}
		}
		if cs != cn || cs.FingerHits+cs.FingerMisses != 0 {
			t.Errorf("seed %d: counters differ or count finger steps:\nStep      %+v\nNext+Peek %+v", seed, cs, cn)
		}
	}
}

// TestMemIteratorAllocs pins the in-place cursor paths: Step, SeekGE and
// an ancestor probe appending into reused capacity allocate nothing.
func TestMemIteratorAllocs(t *testing.T) {
	els := []xmldoc.Element{
		{DocID: 1, Start: 1, End: 100},
		{DocID: 1, Start: 2, End: 40},
		{DocID: 1, Start: 5, End: 10},
		{DocID: 1, Start: 12, End: 30},
		{DocID: 1, Start: 50, End: 90},
	}
	it := &memIterator{els: els}
	dst := make([]xmldoc.Element, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		it.SeekGE(0)
		for _, ok := it.Peek(); ok; _, ok = it.Step() {
		}
		it.SeekGE(5)
		dst, _ = it.AppendAncestors(dst[:0], 20, 0)
	})
	if allocs != 0 {
		t.Errorf("memIterator paths allocate %.1f per run, want 0", allocs)
	}
	sameStarts(t, "memIterator.AppendAncestors(20)", dst, []xmldoc.Element{{Start: 1}, {Start: 2}, {Start: 12}})
}
