// Package pathexpr evaluates XPath-style path expressions as pipelines of
// structural joins — the paper's stated future work ("query evaluation
// strategies for complex XML queries (i.e. a combination of multiple
// structural joins) over XML data on which proper XR-tree indexes have been
// built", §7).
//
// A path expression is a sequence of steps, each an axis ('/' parent-child
// or '//' ancestor-descendant) and a tag name:
//
//	//department//employee/name
//	employee//name            (leading // implied)
//
// Evaluation runs left to right: the matches of step i become the ancestor
// side of the structural join with step i+1's element set, and the
// distinct descendants that join survive. Every binary join runs XR-stack
// over the per-tag XR-trees, so each step costs one index-assisted
// structural join rather than a document traversal.
package pathexpr

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"xrtree/internal/core"
	"xrtree/internal/join"
	"xrtree/internal/metrics"
	"xrtree/internal/xmldoc"
)

// Axis is the structural relationship between consecutive steps.
type Axis int

const (
	// Child is the '/' axis (parent-child).
	Child Axis = iota
	// Descendant is the '//' axis (ancestor-descendant).
	Descendant
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// Step is one location step of a path expression. Predicates are
// existence tests evaluated as structural semi-joins: a step like
// "employee[email]" keeps only the employees with at least one email
// child ("[.//x]"-style descendant tests use a leading "//": "[//email]").
// Multiple predicates AND together.
type Step struct {
	Axis       Axis
	Tag        string
	Predicates []Path
}

// Path is a parsed path expression.
type Path struct {
	Steps []Step
}

// String renders the path in its source form.
func (p Path) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 || s.Axis == Descendant {
			// A leading // is the implied default; a leading / is kept.
			b.WriteString(s.Axis.String())
		} else {
			b.WriteString("/")
		}
		b.WriteString(s.Tag)
		for _, pred := range s.Predicates {
			b.WriteString("[")
			b.WriteString(pred.predString())
			b.WriteString("]")
		}
	}
	return b.String()
}

// predString renders a predicate path: inside brackets the leading axis
// defaults to '/' (XPath child semantics), so a leading child axis is
// omitted and a leading descendant axis prints as "//".
func (p Path) predString() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i > 0 {
			b.WriteString(s.Axis.String())
		} else if s.Axis == Descendant {
			b.WriteString("//")
		}
		b.WriteString(s.Tag)
		for _, pred := range s.Predicates {
			b.WriteString("[")
			b.WriteString(pred.predString())
			b.WriteString("]")
		}
	}
	return b.String()
}

// ErrEmptyPath is returned for expressions with no steps.
var ErrEmptyPath = errors.New("pathexpr: empty path expression")

// Parse parses a path expression. A leading axis is optional and defaults
// to '//' (search anywhere), matching XQuery's common usage; inside a
// predicate the default is '/' (XPath child semantics). Steps may carry
// bracketed existence predicates, nested to any depth:
// "department[name]//employee[email][//employee]/name".
func Parse(expr string) (Path, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return Path{}, ErrEmptyPath
	}
	pr := &parser{src: s}
	path, err := pr.parsePath(Descendant)
	if err != nil {
		return Path{}, fmt.Errorf("pathexpr: %v in %q", err, expr)
	}
	if !pr.eof() {
		return Path{}, fmt.Errorf("pathexpr: unexpected %q at offset %d in %q", pr.src[pr.pos], pr.pos, expr)
	}
	return path, nil
}

// parser is a tiny recursive-descent parser over the expression bytes.
type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

// parsePath parses a step sequence until ']' or end of input. leading is
// the axis assumed when the first step has none.
func (p *parser) parsePath(leading Axis) (Path, error) {
	var path Path
	axis := leading
	for {
		// Optional axis before the step (required between steps).
		if p.peek() == '/' {
			p.pos++
			if p.peek() == '/' {
				p.pos++
				axis = Descendant
			} else {
				axis = Child
			}
		} else if len(path.Steps) > 0 {
			return Path{}, fmt.Errorf("missing axis at offset %d", p.pos)
		}
		step, err := p.parseStep(axis)
		if err != nil {
			return Path{}, err
		}
		path.Steps = append(path.Steps, step)
		axis = Child
		if p.eof() || p.peek() == ']' {
			break
		}
		if p.peek() != '/' {
			return Path{}, fmt.Errorf("unexpected %q at offset %d", p.peek(), p.pos)
		}
	}
	if len(path.Steps) == 0 {
		return Path{}, ErrEmptyPath
	}
	return path, nil
}

// parseStep parses one tag plus any bracketed predicates.
func (p *parser) parseStep(axis Axis) (Step, error) {
	start := p.pos
	for !p.eof() {
		c := p.peek()
		if c == '/' || c == '[' || c == ']' {
			break
		}
		p.pos++
	}
	tag := p.src[start:p.pos]
	if !validTag(tag) {
		return Step{}, fmt.Errorf("invalid step %q", tag)
	}
	step := Step{Axis: axis, Tag: tag}
	for p.peek() == '[' {
		p.pos++
		pred, err := p.parsePath(Child)
		if err != nil {
			return Step{}, err
		}
		if p.peek() != ']' {
			return Step{}, fmt.Errorf("unclosed predicate at offset %d", p.pos)
		}
		p.pos++
		step.Predicates = append(step.Predicates, pred)
	}
	return step, nil
}

func validTag(tag string) bool {
	if tag == "" {
		return false
	}
	// Attribute steps ("@id") and text steps ("#text") address the nodes
	// ParseOptions.IncludeAttributes / IncludeText materialize; "*" matches
	// any element (the provider supplies the all-elements set).
	if tag == "#text" || tag == "*" {
		return true
	}
	body := tag
	if body[0] == '@' {
		body = body[1:]
		if body == "" {
			return false
		}
	}
	for _, r := range body {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// SetProvider resolves a tag name to its XR-tree index. The Evaluate
// pipeline needs nothing else: each step is one XR-stack join.
type SetProvider interface {
	// XRTreeForTag returns the XR-tree over the tag's element set, or
	// (nil, nil) when the document has no such elements.
	XRTreeForTag(tag string) (*core.Tree, error)
}

// Evaluate runs the path over the provider and returns the elements
// matching the final step, sorted by start. Costs accumulate into c.
func Evaluate(p Path, prov SetProvider, c *metrics.Counters) ([]xmldoc.Element, error) {
	if len(p.Steps) == 0 {
		return nil, ErrEmptyPath
	}
	defer func(t *metrics.Timer) { t.Stop() }(metrics.StartTimer(c))

	// Step 0: the whole element set of the first tag, predicate-filtered.
	cur, err := stepCandidates(p.Steps[0], prov, c)
	if err != nil {
		return nil, err
	}

	for _, step := range p.Steps[1:] {
		// Step boundary: each step is one structural join, so a canceled
		// pipeline stops before starting the next join (the joins themselves
		// poll at page boundaries and on a stride).
		if err := c.Interrupted(); err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			return nil, nil
		}
		tree, err := prov.XRTreeForTag(step.Tag)
		if err != nil {
			return nil, err
		}
		if tree == nil {
			return nil, nil
		}
		next, err := joinStep(cur, tree, modeOf(step.Axis), c)
		if err != nil {
			return nil, err
		}
		cur, err = applyPredicates(next, step.Predicates, prov, c)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func modeOf(a Axis) join.Mode {
	if a == Child {
		return join.ParentChild
	}
	return join.AncestorDescendant
}

// stepCandidates returns the step's full tag set filtered by its own
// predicates.
func stepCandidates(st Step, prov SetProvider, c *metrics.Counters) ([]xmldoc.Element, error) {
	tree, err := prov.XRTreeForTag(st.Tag)
	if err != nil || tree == nil {
		return nil, err
	}
	els, err := scanAll(tree, c)
	if err != nil {
		return nil, err
	}
	return applyPredicates(els, st.Predicates, prov, c)
}

// applyPredicates keeps the elements of cur satisfying every predicate.
func applyPredicates(cur []xmldoc.Element, preds []Path, prov SetProvider, c *metrics.Counters) ([]xmldoc.Element, error) {
	var err error
	for _, pred := range preds {
		if len(cur) == 0 {
			return nil, nil
		}
		cur, err = filterByPredicate(cur, pred, prov, c)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// filterByPredicate evaluates one existence predicate as a chain of
// structural semi-joins, processed backward so every step keeps the
// ancestor side: S_i = step-i elements with a step-(i+1) match in S_{i+1}.
func filterByPredicate(cur []xmldoc.Element, pred Path, prov SetProvider, c *metrics.Counters) ([]xmldoc.Element, error) {
	n := len(pred.Steps)
	S, err := stepCandidates(pred.Steps[n-1], prov, c)
	if err != nil {
		return nil, err
	}
	for i := n - 2; i >= 0; i-- {
		if err := c.Interrupted(); err != nil {
			return nil, err
		}
		if len(S) == 0 {
			return nil, nil
		}
		Ci, err := stepCandidates(pred.Steps[i], prov, c)
		if err != nil {
			return nil, err
		}
		S, err = semiJoinAncestors(Ci, S, modeOf(pred.Steps[i+1].Axis), c)
		if err != nil {
			return nil, err
		}
	}
	if len(S) == 0 {
		return nil, nil
	}
	return semiJoinAncestors(cur, S, modeOf(pred.Steps[0].Axis), c)
}

// semiJoinAncestors returns the distinct elements of anc (sorted by start)
// that join at least one element of desc under mode, via XR-stack over
// in-memory sources.
func semiJoinAncestors(anc, desc []xmldoc.Element, mode join.Mode, c *metrics.Counters) ([]xmldoc.Element, error) {
	if len(anc) == 0 || len(desc) == 0 {
		return nil, nil
	}
	seen := make(map[uint32]xmldoc.Element, 64)
	err := join.XRStack(mode, join.SliceSource{Els: anc}, join.SliceSource{Els: desc}, func(av, _ xmldoc.Element) {
		seen[av.Start] = av
	}, c)
	if err != nil {
		return nil, err
	}
	out := make([]xmldoc.Element, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

// scanAll materializes a tree's element set in start order.
func scanAll(t *core.Tree, c *metrics.Counters) ([]xmldoc.Element, error) {
	it, err := t.Scan(c)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := make([]xmldoc.Element, 0, t.Len())
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out, it.Err()
}

// joinStep returns the distinct elements of the descendant tree that join
// with any ancestor in cur under the given mode, via the XR-stack
// algorithm with the in-memory ancestor list as one side.
func joinStep(cur []xmldoc.Element, desc *core.Tree, mode join.Mode, c *metrics.Counters) ([]xmldoc.Element, error) {
	a := join.SliceSource{Els: cur}
	d := join.XRTreeSource{T: desc}
	var out []xmldoc.Element
	err := join.XRStack(mode, a, d, func(_, dv xmldoc.Element) {
		// XR-stack emits pairs in ascending descendant order, so the pairs
		// of one descendant are adjacent.
		if len(out) == 0 || out[len(out)-1].Start != dv.Start {
			out = append(out, dv)
		}
	}, c)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Reference evaluates the path by brute force over a parsed document — the
// oracle the tests compare Evaluate against. Predicates are evaluated by
// exhaustive existence search.
func Reference(p Path, doc *xmldoc.Document) []xmldoc.Element {
	if len(p.Steps) == 0 {
		return nil
	}
	cur := refStepSet(doc, p.Steps[0])
	for _, step := range p.Steps[1:] {
		cand := refStepSet(doc, step)
		var next []xmldoc.Element
		for _, d := range cand {
			for _, a := range cur {
				if refRelated(a, d, step.Axis) {
					next = append(next, d)
					break
				}
			}
		}
		cur = next
	}
	return cur
}

func refByTag(doc *xmldoc.Document, tag string) []xmldoc.Element {
	if tag == "*" {
		return doc.AllElements()
	}
	return doc.ElementsByTag(tag)
}

func refRelated(a, d xmldoc.Element, axis Axis) bool {
	if axis == Child {
		return a.IsParentOf(d)
	}
	return a.IsAncestorOf(d)
}

// refStepSet returns the step's tag set filtered by its predicates.
func refStepSet(doc *xmldoc.Document, st Step) []xmldoc.Element {
	els := refByTag(doc, st.Tag)
	if len(st.Predicates) == 0 {
		return els
	}
	var out []xmldoc.Element
	for _, e := range els {
		ok := true
		for _, pred := range st.Predicates {
			if !refPredHolds(doc, e, pred) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// refPredHolds reports whether a chain matching pred exists under a.
func refPredHolds(doc *xmldoc.Document, a xmldoc.Element, pred Path) bool {
	cur := []xmldoc.Element{a}
	for _, st := range pred.Steps {
		cand := refStepSet(doc, st)
		var next []xmldoc.Element
		for _, d := range cand {
			for _, x := range cur {
				if refRelated(x, d, st.Axis) {
					next = append(next, d)
					break
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	return true
}
