// Package flow is the flow-sensitive obligation walker behind the pinleak
// and spanend analyzers. An obligation is a resource a function acquires
// and must discharge — a buffer-pool pin to release, a span to end —
// before it returns or re-enters a loop iteration. The walker follows
// every path through a function body, tracking the open obligations per
// path, and reports those a return, a fall off the end of the body, or a
// loop back edge still carries.
//
// The walker owns everything the analyzers share: the statement walk,
// with labeled break and continue resolved to the statement they leave
// (goto conservatively ends the path); path merging, capped at 64 paths
// per statement; nil guards; defer; ownership transfer through call
// arguments, composite literals and returns; the fixpoint that discovers
// obligation-returning wrappers before anything is reported; report
// dedup; and the function-level escape directive, whose reason is
// mandatory. An analyzer plugs in a Hooks table for the parts that
// differ: which calls acquire, release, or merely read a handle, how an
// acquisition binds to the variables it is assigned to, what returning
// an obligation makes of the function, and the diagnostic texts.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"xrtree/internal/analysis"
)

// Obligation is one open resource on one path.
type Obligation struct {
	Key string       // source text of the handle, for diagnostics
	Obj types.Object // handle variable: releases and call arguments match it
	// Data is the value whose storing, aliasing or returning hands the
	// obligation to a new owner: a pin's page bytes, a span's own variable.
	Data types.Object
	// Err is the acquisition's error variable: the obligation exists only
	// where Err is nil. Reassigning the variable severs the link.
	Err types.Object
	// Nilable marks a handle that may be nil and then holds nothing: on
	// the nil side of a guard on Obj the obligation vanishes.
	Nilable bool
	Pos     token.Pos // acquisition site
}

// Hooks is what an analyzer plugs into the walker. Advisory and Follows
// may be nil.
type Hooks struct {
	// Directive is the function-level escape, e.g. "//xrvet:pinleak-ignore".
	Directive string
	// Acquires reports whether call acquires an obligation directly.
	// Calls to discovered wrappers acquire too.
	Acquires func(w *Walker, call *ast.CallExpr) bool
	// Bind builds the obligation an acquiring call creates when its
	// results are assigned to lhs or, with lhs nil, returned directly; ok
	// is false when there is nothing to track.
	Bind func(w *Walker, call *ast.CallExpr, lhs []ast.Expr) (o Obligation, ok bool)
	// Released returns the handle a discharging call releases, or nil.
	Released func(w *Walker, call *ast.CallExpr) ast.Expr
	// Advisory reports calls that read handles without taking over their
	// obligations.
	Advisory func(w *Walker, call *ast.CallExpr) bool
	// Follows reports whether a handle assigned to the variable id moves
	// its obligation there rather than handing it away.
	Follows func(w *Walker, id *ast.Ident) bool
	// Captures makes a function literal that mentions a handle its owner.
	Captures bool
	// Returned is told that result i of the walked function carries o;
	// it records the function as a wrapper through w.RecordWrapper.
	Returned func(w *Walker, o Obligation, i int)
	// Diagnostic formats. Discarded takes the acquiring call's function;
	// the others take the obligation's key and acquisition line.
	Discarded, Overwritten, Leaked, LoopLeaked string
}

// Run checks one package; it has the shape of analysis.Analyzer.Run.
func (h *Hooks) Run(pass *analysis.Pass) (any, error) {
	c := &checker{
		h:        h,
		pass:     pass,
		wrappers: map[types.Object]int{},
		reported: map[report]bool{},
		escapes:  analysis.CommentLines(pass.Fset, pass.Files, h.Directive),
	}
	// Discover obligation-returning wrappers (whose callers then acquire
	// through them) before reporting anything. Wrapper chains are short; a
	// few rounds reach closure.
	c.collect = true
	for range 4 {
		c.changed = false
		c.walkAll()
		if !c.changed {
			break
		}
	}
	c.collect = false
	c.walkAll()
	return nil, nil
}

type checker struct {
	h    *Hooks
	pass *analysis.Pass
	// wrappers maps a function to the index, a parameter or result
	// position as the analyzer defines it, at which its callers acquire.
	wrappers map[types.Object]int
	collect  bool
	changed  bool
	reported map[report]bool
	escapes  map[analysis.LineKey]string
}

type report struct {
	pos token.Pos
	msg string
}

func (c *checker) walkAll() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil || c.escaped(fn) {
					return false
				}
				c.check(fn.Type, fn.Body, c.pass.TypesInfo.Defs[fn.Name])
			case *ast.FuncLit:
				// Function literals are checked as functions in their own
				// right; obligations they inherit from the enclosing function
				// are that function's responsibility (transfer rules apply).
				c.check(fn.Type, fn.Body, nil)
			}
			return true
		})
	}
}

// escaped reports whether fn carries the escape directive. The directive
// is an audit record: a bare one, without a reason, is itself a finding.
func (c *checker) escaped(fn *ast.FuncDecl) bool {
	reason, ok := analysis.Annotation(c.pass.Fset, c.escapes, fn.Pos())
	if ok && reason == "" && !c.collect {
		c.pass.Reportf(fn.Pos(), "bare %s escape: add a justification (%s <reason>)", c.h.Directive, c.h.Directive)
	}
	return ok
}

func (c *checker) check(ftype *ast.FuncType, body *ast.BlockStmt, fn types.Object) {
	w := &Walker{Pass: c.pass, c: c, fn: fn, params: map[types.Object]int{}}
	idx := 0
	for _, fld := range ftype.Params.List {
		if len(fld.Names) == 0 {
			idx++
		}
		for _, name := range fld.Names {
			if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
				w.params[obj] = idx
			}
			idx++
		}
	}
	for _, o := range w.list(body.List, nil) {
		if o.kind == fall {
			// Falling off the end of the body is an implicit return.
			w.leaks(o.st, body.Rbrace)
		}
	}
}

// Walker walks one function body. Hooks use its methods to resolve
// variables, consult and record wrappers, and report.
type Walker struct {
	Pass   *analysis.Pass
	c      *checker
	fn     types.Object         // nil for function literals
	params map[types.Object]int // declared parameter -> index
}

// Obj returns the object an identifier denotes, or nil for any other
// expression.
func (w *Walker) Obj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := w.Pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return w.Pass.TypesInfo.Defs[id]
}

// Param returns the parameter index of obj in the walked function.
func (w *Walker) Param(obj types.Object) (int, bool) {
	idx, ok := w.params[obj]
	return idx, ok
}

// Wrapper returns the index recorded for the function call invokes, if
// that function is a discovered wrapper.
func (w *Walker) Wrapper(call *ast.CallExpr) (int, bool) {
	idx, ok := w.c.wrappers[analysis.CalleeObj(w.Pass.TypesInfo, call)]
	return idx, ok
}

// RecordWrapper marks the walked function as a wrapper whose callers
// acquire at idx. Only the discovery rounds record.
func (w *Walker) RecordWrapper(idx int) {
	if !w.c.collect || w.fn == nil {
		return
	}
	if _, ok := w.c.wrappers[w.fn]; !ok {
		w.c.wrappers[w.fn] = idx
		w.c.changed = true
	}
}

// Report reports a finding once per position and message; the discovery
// rounds report nothing.
func (w *Walker) Report(at token.Pos, format string, args ...any) {
	if w.c.collect {
		return
	}
	r := report{at, fmt.Sprintf(format, args...)}
	if w.c.reported[r] {
		return
	}
	w.c.reported[r] = true
	w.Pass.Report(analysis.Diagnostic{Pos: at, Message: r.msg})
}

func (w *Walker) line(pos token.Pos) int {
	return w.Pass.Fset.Position(pos).Line
}

func (w *Walker) acquires(call *ast.CallExpr) bool {
	if _, ok := w.Wrapper(call); ok {
		return true
	}
	return w.c.h.Acquires(w, call)
}

func (w *Walker) leaks(st state, at token.Pos) {
	for _, o := range st {
		w.Report(at, w.c.h.Leaked, o.Key, w.line(o.Pos))
	}
}

// state is the set of open obligations on one path. States are shared
// between paths, so every update builds a new slice.
type state []Obligation

func (st state) without(drop func(Obligation) bool) state {
	out := st[:0:0]
	for _, o := range st {
		if !drop(o) {
			out = append(out, o)
		}
	}
	return out
}

func (st state) mapped(f func(*Obligation)) state {
	out := append(st[:0:0], st...)
	for i := range out {
		f(&out[i])
	}
	return out
}

type kind int

const (
	fall kind = iota
	brk
	cont
	term // return, panic, goto: path accounted for or abandoned
)

type outcome struct {
	kind  kind
	label string // target of a labeled break or continue
	st    state
}

func falls(st state) []outcome { return []outcome{{kind: fall, st: st}} }

// targets reports whether a break or continue leaves the statement
// labeled label: an unlabeled one leaves the innermost statement.
func (o outcome) targets(label string) bool { return o.label == "" || o.label == label }

// merge dedupes outcomes by kind, label and open obligations, and caps
// path blowup.
func merge(outs []outcome) []outcome {
	seen := map[string]bool{}
	var res []outcome
	for _, o := range outs {
		key := strconv.Itoa(int(o.kind)) + o.label + "|"
		for _, ob := range o.st {
			key += ob.Key
			if ob.Err != nil {
				key += "?"
			}
			key += "@" + strconv.Itoa(int(ob.Pos)) + ";"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		res = append(res, o)
		if len(res) >= 64 {
			break
		}
	}
	return res
}

func (w *Walker) list(stmts []ast.Stmt, st state) []outcome {
	if len(stmts) == 0 {
		return falls(st)
	}
	var res []outcome
	for _, o := range w.stmt(stmts[0], "", st) {
		if o.kind == fall {
			res = append(res, w.list(stmts[1:], o.st)...)
		} else {
			res = append(res, o)
		}
	}
	return merge(res)
}

// stmt walks one statement; label is the statement's label, if any.
func (w *Walker) stmt(s ast.Stmt, label string, st state) []outcome {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return falls(w.assign(st, s.Lhs, s.Rhs, s.Pos()))
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					st = w.assign(st, lhs, vs.Values, s.Pos())
				}
			}
		}
		return falls(st)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if analysis.CalleeName(call) == "panic" {
				return []outcome{{kind: term, st: st}}
			}
			if w.acquires(call) {
				w.Report(s.Pos(), w.c.h.Discarded, types.ExprString(call.Fun))
			}
		}
		return falls(w.scan(st, s.X))
	case *ast.ReturnStmt:
		st = w.returned(w.scan(st, s.Results...), s.Results)
		w.leaks(st, s.Pos())
		return []outcome{{kind: term, st: st}}
	case *ast.DeferStmt:
		return falls(w.deferred(st, s.Call))
	case *ast.GoStmt:
		return falls(w.deferred(st, s.Call))
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.simple(s.Init, st)
		}
		st = w.scan(st, s.Cond)
		thenSt, elseSt := w.guard(st, s.Cond)
		res := w.list(s.Body.List, thenSt)
		if s.Else != nil {
			res = append(res, w.stmt(s.Else, "", elseSt)...)
		} else {
			res = append(res, outcome{kind: fall, st: elseSt})
		}
		return merge(res)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.simple(s.Init, st)
		}
		return w.loop(label, s.Body, w.scan(st, s.Cond), s.Cond != nil)
	case *ast.RangeStmt:
		return w.loop(label, s.Body, w.scan(st, s.X), true)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.simple(s.Init, st)
		}
		return w.clauses(label, s.Body, w.scan(st, s.Tag), hasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.simple(s.Init, st)
		}
		return w.clauses(label, s.Body, st, hasDefault(s.Body))
	case *ast.SelectStmt:
		return w.clauses(label, s.Body, st, true)
	case *ast.BlockStmt:
		return w.list(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, s.Label.Name, st)
	case *ast.BranchStmt:
		var target string
		if s.Label != nil {
			target = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			return []outcome{{kind: brk, label: target, st: st}}
		case token.CONTINUE:
			return []outcome{{kind: cont, label: target, st: st}}
		case token.FALLTHROUGH:
			return falls(st)
		}
		return []outcome{{kind: term, st: st}} // goto: abandon path analysis rather than guess
	case *ast.SendStmt:
		return falls(w.scan(st, s.Chan, s.Value))
	}
	return falls(st)
}

// simple runs a statement known not to branch (loop/if/switch inits) and
// returns the single fall-through state.
func (w *Walker) simple(s ast.Stmt, st state) state {
	for _, o := range w.stmt(s, "", st) {
		if o.kind == fall {
			return o.st
		}
	}
	return st
}

// loop walks a for or range body. A path coming around again — falling
// off the body or continuing this loop — must not carry an obligation
// acquired in the body: it is reported once at the acquisition, then
// dropped so the paths leaving the loop don't report it again. A for
// loop without a condition is left only by break, return or panic.
func (w *Walker) loop(label string, body *ast.BlockStmt, st state, exits bool) []outcome {
	inBody := func(o Obligation) bool { return o.Pos > body.Lbrace && o.Pos < body.Rbrace }
	var res []outcome
	for _, o := range w.list(body.List, st) {
		switch {
		case o.kind == fall || o.kind == cont && o.targets(label):
			for _, ob := range o.st {
				if inBody(ob) {
					w.Report(ob.Pos, w.c.h.LoopLeaked, ob.Key, w.line(ob.Pos))
				}
			}
			if exits {
				res = append(res, outcome{kind: fall, st: o.st.without(inBody)})
			}
		case o.kind == brk && o.targets(label):
			res = append(res, outcome{kind: fall, st: o.st})
		default:
			res = append(res, o)
		}
	}
	if exits {
		res = append(res, outcome{kind: fall, st: st}) // zero iterations
	}
	return merge(res)
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		switch cl := s.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				return true
			}
		case *ast.CommClause:
			if cl.Comm == nil {
				return true
			}
		}
	}
	return false
}

// clauses walks switch/select case bodies. Unless the statement is
// exhaustive, the no-case-taken path falls through with the entry state.
func (w *Walker) clauses(label string, body *ast.BlockStmt, st state, exhaustive bool) []outcome {
	var res []outcome
	for _, s := range body.List {
		switch cl := s.(type) {
		case *ast.CaseClause:
			res = append(res, w.list(cl.Body, w.scan(st, cl.List...))...)
		case *ast.CommClause:
			st2 := st
			if cl.Comm != nil {
				st2 = w.simple(cl.Comm, st2)
			}
			res = append(res, w.list(cl.Body, st2)...)
		}
	}
	if !exhaustive {
		res = append(res, outcome{kind: fall, st: st})
	}
	// A break leaving this statement falls through after it; one naming an
	// enclosing loop passes on.
	for i, o := range res {
		if o.kind == brk && o.targets(label) {
			res[i] = outcome{kind: fall, st: o.st}
		}
	}
	return merge(res)
}

// guard splits st across a nil test of a variable x: an obligation whose
// acquisition error is x does not exist where x is non-nil, and a Nilable
// obligation on handle x does not exist where x is nil.
func (w *Walker) guard(st state, cond ast.Expr) (thenSt, elseSt state) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return st, st
	}
	var obj types.Object
	if isNil(be.Y) {
		obj = w.Obj(be.X)
	} else if isNil(be.X) {
		obj = w.Obj(be.Y)
	}
	if obj == nil {
		return st, st
	}
	nilSt := st.without(func(o Obligation) bool { return o.Nilable && o.Obj == obj })
	nonNilSt := st.without(func(o Obligation) bool { return o.Err == obj })
	if be.Op == token.EQL {
		return nilSt, nonNilSt
	}
	return nonNilSt, nilSt
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// assign processes one (possibly multi-value) assignment: releases and
// transfers in the RHS, handles assigned onward, overwritten handles and
// guards on the LHS, then the acquisition if the RHS is an acquiring call.
func (w *Walker) assign(st state, lhs, rhs []ast.Expr, pos token.Pos) state {
	h := w.c.h
	st = w.scan(st, rhs...)

	// A value assigned onward hands its obligation over, unless the
	// analyzer has it follow into the assigned variable (aliasing).
	type move struct {
		from types.Object
		to   *ast.Ident
	}
	var moves []move
	for i, r := range rhs {
		obj := w.Obj(r)
		if obj == nil {
			continue
		}
		if len(lhs) == len(rhs) && h.Follows != nil {
			if id, ok := lhs[i].(*ast.Ident); ok && w.Obj(id) != nil && h.Follows(w, id) {
				moves = append(moves, move{obj, id})
				continue
			}
		}
		st = st.without(func(o Obligation) bool { return o.Data == obj })
	}

	for _, l := range lhs {
		obj := w.Obj(l)
		if obj == nil {
			continue
		}
		st = st.without(func(o Obligation) bool {
			if o.Obj == obj {
				w.Report(pos, h.Overwritten, o.Key, w.line(o.Pos))
			}
			return o.Obj == obj
		})
		// Reassigning an acquisition's error variable severs the guard:
		// the obligation is definitely held from here on.
		st = st.mapped(func(o *Obligation) {
			if o.Err == obj {
				o.Err = nil
			}
		})
	}

	for _, m := range moves {
		to := w.Obj(m.to)
		st = st.mapped(func(o *Obligation) {
			if o.Data == m.from {
				o.Key, o.Obj, o.Data = m.to.Name, to, to
			}
		})
	}

	if len(rhs) == 1 {
		if call, ok := rhs[0].(*ast.CallExpr); ok && w.acquires(call) {
			if o, ok := h.Bind(w, call, lhs); ok {
				o.Pos = pos
				st = append(st[:len(st):len(st)], o)
			}
		}
	}
	return st
}

// returned hands obligations that leave through the results to the
// caller, telling the analyzer which result carries each.
func (w *Walker) returned(st state, results []ast.Expr) state {
	for i, r := range results {
		if call, ok := r.(*ast.CallExpr); ok && w.acquires(call) {
			if o, ok := w.c.h.Bind(w, call, nil); ok {
				w.c.h.Returned(w, o, i)
			}
			continue
		}
		obj := w.Obj(r)
		if obj == nil {
			continue
		}
		st = st.without(func(o Obligation) bool {
			if o.Obj != obj && o.Data != obj {
				return false
			}
			w.c.h.Returned(w, o, i)
			return true
		})
	}
	return st
}

// deferred handles defer and go: a deferred release covers the
// obligation for the rest of the function, as does a deferred closure
// releasing it; anything else is scanned for transfers.
func (w *Walker) deferred(st state, call *ast.CallExpr) state {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		if next, ok := w.release(st, call); ok {
			return next
		}
		return w.scan(st, call)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			st, _ = w.release(st, c)
		}
		return true
	})
	return st
}

// release discharges the most recent obligation on the handle a
// releasing call names (pin counts nest LIFO). ok reports whether call
// releases at all.
func (w *Walker) release(st state, call *ast.CallExpr) (next state, ok bool) {
	handle := w.c.h.Released(w, call)
	if handle == nil {
		return st, false
	}
	obj, key := w.Obj(handle), types.ExprString(handle)
	for i := len(st) - 1; i >= 0; i-- {
		if (obj != nil && st[i].Obj == obj) || st[i].Key == key {
			return append(st[:i:i], st[i+1:]...), true
		}
	}
	return st, true
}

// scan folds the releases and ownership transfers found anywhere in exprs
// into st. Function-literal bodies run later (or never) and are checked
// as functions of their own.
func (w *Walker) scan(st state, exprs ...ast.Expr) state {
	h := w.c.h
	dropObj := func(obj types.Object) {
		if obj != nil {
			st = st.without(func(o Obligation) bool { return o.Obj == obj })
		}
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if h.Captures {
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							dropObj(w.Obj(id))
						}
						return true
					})
				}
				return false
			case *ast.CallExpr:
				if next, ok := w.release(st, n); ok {
					st = next
					return true
				}
				// Conversions read values; acquiring calls don't consume an
				// obligation on the same handle (pin counts nest); advisory
				// calls never take one. None of them transfers.
				if tv, ok := w.Pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
					return true
				}
				if w.acquires(n) || (h.Advisory != nil && h.Advisory(w, n)) {
					return true
				}
				for _, arg := range n.Args {
					dropObj(w.Obj(arg))
				}
			case *ast.CompositeLit:
				// Storing the value in a structure hands the obligation to
				// it (an iterator keeps its page pinned across Next calls);
				// storing a page id alone is bookkeeping.
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if obj := w.Obj(el); obj != nil {
						st = st.without(func(o Obligation) bool { return o.Data == obj })
					}
				}
			}
			return true
		})
	}
	return st
}
