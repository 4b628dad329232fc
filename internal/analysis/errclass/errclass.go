// Package errclass enforces the cluster's shard-boundary error contract:
// every error a coordinator-side function hands across the shard
// boundary must be a typed *ShardError — built literally or run through
// classify — so the router can decide retriable-vs-fatal, fire hedges,
// and map shard failures to 502 instead of 400. A naked fmt.Errorf or
// errors.New escaping such a function defeats all three at once, which
// is exactly how a malformed shard response once skipped the
// partial-result policy.
//
// A function is a *boundary* function when at least one of its return
// paths produces a *ShardError (a literal, a classify call, or a call to
// a function summarized as shard-clean). In a boundary function, every
// other error return must be shard-typed too; returns of naked
// constructor errors (fmt.Errorf, errors.New — directly, via a local
// variable, or via a call to a function summarized as naked-returning)
// are flagged. Functions with no shard-typed return (config validation,
// HTTP plumbing) are out of contract and unchecked — their callers wrap.
//
// Summaries are propagated to a fixpoint through same-package calls, so
// helper chains (exec → attempt → classify) keep their classification.
// Function literals are checked too: the coordinator's scatter-gather
// task closures are the boundary's busiest crossing.
//
// The package is only checked when it declares a named type ShardError,
// so the analyzer self-scopes to the cluster package and its testdata
// stand-ins. `//xrvet:errclass-ok <reason>` on the return line (or the
// line above) escapes a deliberate plain-error return — request
// validation that must map to 400, not 502. The justification is
// mandatory; a bare `//xrvet:errclass-ok` is itself a finding.
package errclass

import (
	"go/ast"
	"go/types"

	"xrtree/internal/analysis"
)

// Analyzer is the errclass analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "errclass",
	Doc:  "check that errors crossing the cluster's shard boundary are typed ShardError",
	Run:  run,
}

// kind classifies one error-position return expression.
type kind int

const (
	unknownK kind = iota
	nilK
	shardK // *ShardError literal, classify call, or shard-clean callee
	nakedK // fmt.Errorf / errors.New lineage
)

// summary classifies one function's error returns as a whole.
type summary int

const (
	sumUnknown summary = iota
	sumClean           // every error return is nil or shard-typed
	sumNaked           // some return is a naked constructor error
)

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Scope().Lookup("ShardError") == nil {
		return nil, nil
	}
	c := &checker{
		pass:      pass,
		summaries: map[types.Object]summary{},
		escapes:   analysis.CommentLines(pass.Fset, pass.Files, "//xrvet:errclass-ok"),
	}
	for range 4 {
		c.changed = false
		c.forEachFunc(func(body *ast.BlockStmt, ftype *ast.FuncType, obj types.Object) {
			s, _ := c.classifyFunc(body, ftype)
			if obj == nil {
				return
			}
			if old := c.summaries[obj]; s != old && old == sumUnknown {
				c.summaries[obj] = s
				c.changed = true
			}
		})
		if !c.changed {
			break
		}
	}
	c.report = true
	c.forEachFunc(func(body *ast.BlockStmt, ftype *ast.FuncType, obj types.Object) {
		c.classifyFunc(body, ftype)
	})
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	summaries map[types.Object]summary
	escapes   map[analysis.LineKey]string
	changed   bool
	report    bool
}

func (c *checker) forEachFunc(fn func(*ast.BlockStmt, *ast.FuncType, types.Object)) {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Body, d.Type, c.pass.TypesInfo.Defs[d.Name])
				}
			case *ast.FuncLit:
				fn(d.Body, d.Type, nil)
			}
			return true
		})
	}
}

// classifyFunc classifies every error-position return in the body and,
// in report mode, flags naked returns when the function is a boundary
// function. It returns the function's summary.
func (c *checker) classifyFunc(body *ast.BlockStmt, ftype *ast.FuncType) (summary, bool) {
	errIdx := errResultIndexes(c.pass.TypesInfo, ftype)
	if len(errIdx) == 0 {
		return sumUnknown, false
	}
	type ret struct {
		expr ast.Expr
		k    kind
	}
	var rets []ret
	ast.Inspect(body, func(n ast.Node) bool {
		// Nested function literals are classified on their own.
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		rs, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(rs.Results) == 0 {
			return true // naked return of named results: unclassifiable
		}
		if len(rs.Results) == 1 && len(errIdx) >= 1 && errIdx[0] != 0 {
			// `return f()` forwarding a multi-result call.
			if call, ok := rs.Results[0].(*ast.CallExpr); ok {
				rets = append(rets, ret{call, c.classifyExpr(body, call)})
			}
			return true
		}
		for _, i := range errIdx {
			if i < len(rs.Results) {
				rets = append(rets, ret{rs.Results[i], c.classifyExpr(body, rs.Results[i])})
			}
		}
		return true
	})

	boundary := false
	naked := false
	clean := true
	for _, r := range rets {
		switch r.k {
		case shardK:
			boundary = true
		case nakedK:
			naked = true
			clean = false
		case unknownK:
			clean = false
		}
	}
	if c.report && boundary {
		for _, r := range rets {
			if r.k == nakedK {
				c.flag(r.expr)
			}
		}
	}
	switch {
	case naked:
		return sumNaked, boundary
	case clean:
		return sumClean, boundary
	default:
		return sumUnknown, boundary
	}
}

func (c *checker) flag(expr ast.Expr) {
	reason, annotated := analysis.Annotation(c.pass.Fset, c.escapes, expr.Pos())
	if annotated {
		if reason == "" {
			c.pass.Reportf(expr.Pos(),
				"bare //xrvet:errclass-ok escape: add a justification (//xrvet:errclass-ok <reason>)")
		}
		return
	}
	c.pass.Reportf(expr.Pos(),
		"error crossing the shard boundary is not a *ShardError: %s — build a ShardError or run it through classify so retriable-vs-fatal routing, hedging, and the partial-result policy see it; annotate deliberate plain errors with //xrvet:errclass-ok <reason>",
		types.ExprString(expr))
}

// classifyExpr classifies one error-position expression.
func (c *checker) classifyExpr(body *ast.BlockStmt, e ast.Expr) kind {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return nilK
		}
		if isShardType(c.pass.TypesInfo.TypeOf(e)) {
			return shardK
		}
		return c.classifyVar(body, e)
	case *ast.UnaryExpr, *ast.CompositeLit:
		if isShardType(c.pass.TypesInfo.TypeOf(e.(ast.Expr))) {
			return shardK
		}
		return unknownK
	case *ast.CallExpr:
		return c.classifyCall(e)
	}
	if isShardType(c.pass.TypesInfo.TypeOf(e)) {
		return shardK
	}
	return unknownK
}

// classifyCall classifies the error a call produces.
func (c *checker) classifyCall(call *ast.CallExpr) kind {
	if isShardType(c.pass.TypesInfo.TypeOf(call)) {
		return shardK // classify(...) and friends: static result type *ShardError
	}
	if pkg, name := stdCallee(c.pass.TypesInfo, call); pkg != "" {
		if (pkg == "fmt" && name == "Errorf") || (pkg == "errors" && (name == "New" || name == "Join")) {
			return nakedK
		}
	}
	switch c.summaries[analysis.CalleeObj(c.pass.TypesInfo, call)] {
	case sumClean:
		return shardK
	case sumNaked:
		return nakedK
	}
	return unknownK
}

// classifyVar classifies a local error variable from every assignment to
// it in the enclosing body: all shard/nil sources → shard, any naked
// source → naked.
func (c *checker) classifyVar(body *ast.BlockStmt, id *ast.Ident) kind {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return unknownK
	}
	k := unknownK
	sawNaked := false
	sawShard := false
	sawOther := false
	consider := func(e ast.Expr) {
		switch c.classifyRHS(e) {
		case nakedK:
			sawNaked = true
		case shardK, nilK:
			sawShard = true
		default:
			sawOther = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				lid, ok := l.(*ast.Ident)
				if !ok {
					continue
				}
				lobj := c.pass.TypesInfo.Defs[lid]
				if lobj == nil {
					lobj = c.pass.TypesInfo.Uses[lid]
				}
				if lobj != obj {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					consider(n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					// Multi-value call: the error position follows the callee's
					// summary.
					consider(n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				nobj := c.pass.TypesInfo.Defs[name]
				if nobj != obj {
					continue
				}
				if i < len(n.Values) {
					consider(n.Values[i])
				} else if len(n.Values) == 1 {
					consider(n.Values[0])
				}
			}
		}
		return true
	})
	switch {
	case sawNaked:
		k = nakedK
	case sawShard && !sawOther:
		k = shardK
	}
	return k
}

// classifyRHS classifies an assignment source feeding an error variable.
func (c *checker) classifyRHS(e ast.Expr) kind {
	switch e := e.(type) {
	case *ast.CallExpr:
		return c.classifyCall(e)
	case *ast.Ident:
		if e.Name == "nil" {
			return nilK
		}
		if isShardType(c.pass.TypesInfo.TypeOf(e)) {
			return shardK
		}
		return unknownK
	case *ast.UnaryExpr, *ast.CompositeLit:
		if isShardType(c.pass.TypesInfo.TypeOf(e.(ast.Expr))) {
			return shardK
		}
	}
	return unknownK
}

func isShardType(t types.Type) bool {
	return analysis.TypeNameIs(t, "", "ShardError")
}

// errResultIndexes returns the result positions with static type error.
func errResultIndexes(info *types.Info, ftype *ast.FuncType) []int {
	if ftype.Results == nil {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	var out []int
	idx := 0
	for _, fld := range ftype.Results.List {
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		t := info.TypeOf(fld.Type)
		for range n {
			if t != nil && types.Identical(t, errType) {
				out = append(out, idx)
			}
			idx++
		}
	}
	return out
}

// stdCallee resolves pkg.Fn calls on an imported package (fmt.Errorf,
// errors.New).
func stdCallee(info *types.Info, call *ast.CallExpr) (pkg, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if pn, ok := info.Uses[x].(*types.PkgName); ok {
		return pn.Imported().Path(), sel.Sel.Name
	}
	return "", ""
}
