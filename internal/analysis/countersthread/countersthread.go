// Package countersthread enforces the metrics.Counters threading
// contract. Counters is a plain (non-atomic) struct that accumulates in
// place; the design threads exactly one *Counters down each query path
// (or one per parallel task, merged afterward). Two bug classes break
// that contract silently:
//
//   - copying Counters by value — a value parameter or a `x := *c`
//     deref-copy accumulates into the copy and the increments are lost
//     when it dies (value *returns* are fine: Pool.Stats hands out a
//     deliberate snapshot);
//
//   - dropping the counters mid-path — calling a counted layer with a
//     literal nil Counters argument while the caller itself received a
//     *Counters: the callee's page accesses and element scans vanish
//     from the query's accounting, and with them the Ctx cancellation
//     checks. `//xrvet:nocounters <reason>` on the call line (or the
//     line above) documents the rare deliberate drop; the reason is
//     mandatory, and a bare escape is itself a finding.
package countersthread

import (
	"go/ast"
	"go/types"

	"xrtree/internal/analysis"
)

// Analyzer is the countersthread analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "countersthread",
	Doc:  "flag Counters passed by value, deref-copied, or dropped (nil) when calling counted layers",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	nocounters := analysis.CommentLines(pass.Fset, pass.Files, "//xrvet:nocounters")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkParams(pass, n.Type)
				if n.Body != nil {
					checkBody(pass, n.Type, n.Body, nocounters)
				}
				return false // checkBody descends, including into FuncLits
			case *ast.FuncLit:
				checkParams(pass, n.Type)
			}
			return true
		})
	}
	return nil, nil
}

// isCounters reports whether t is the named type Counters (any package
// named metrics, or a testdata stand-in).
func isCounters(t types.Type) bool {
	n, _ := types.Unalias(t).(*types.Named)
	return n != nil && n.Obj().Name() == "Counters"
}

func isCountersPtr(t types.Type) bool {
	p, ok := types.Unalias(t).Underlying().(*types.Pointer)
	return ok && isCounters(p.Elem())
}

// checkParams flags value-typed Counters parameters.
func checkParams(pass *analysis.Pass, ftype *ast.FuncType) {
	if ftype.Params == nil {
		return
	}
	for _, fld := range ftype.Params.List {
		t := pass.TypesInfo.TypeOf(fld.Type)
		if t != nil && isCounters(t) {
			pass.Reportf(fld.Pos(), "Counters passed by value: increments accumulate into a copy; pass *Counters")
		}
	}
}

// checkBody flags deref-copies and nil-drops inside one function.
func checkBody(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt, nocounters map[analysis.LineKey]string) {
	hasCounters := false
	if ftype.Params != nil {
		for _, fld := range ftype.Params.List {
			if t := pass.TypesInfo.TypeOf(fld.Type); t != nil && isCountersPtr(t) {
				hasCounters = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				checkDerefCopy(pass, r)
			}
		case *ast.ValueSpec:
			for _, r := range n.Values {
				checkDerefCopy(pass, r)
			}
		case *ast.CallExpr:
			if hasCounters {
				checkNilDrop(pass, n, nocounters)
			}
		case *ast.FuncLit:
			// Nested literals are checked with their own parameter set.
			checkParams(pass, n.Type)
			checkBody(pass, n.Type, n.Body, nocounters)
			return false
		}
		return true
	})
}

// checkDerefCopy flags `x := *c` for c *Counters.
func checkDerefCopy(pass *analysis.Pass, e ast.Expr) {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return
	}
	if t := pass.TypesInfo.TypeOf(star.X); t != nil && isCountersPtr(t) {
		pass.Reportf(e.Pos(), "Counters deref-copied: increments into the copy are lost; keep the pointer")
	}
}

// checkNilDrop flags literal nil passed where the callee expects a
// *Counters, in a function that has one to give.
func checkNilDrop(pass *analysis.Pass, call *ast.CallExpr, nocounters map[analysis.LineKey]string) {
	sig, ok := types.Unalias(pass.TypesInfo.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok || id.Name != "nil" {
			continue
		}
		if pass.TypesInfo.Uses[id] != nil && pass.TypesInfo.Uses[id] != types.Universe.Lookup("nil") {
			continue // shadowed nil, not the predeclared one
		}
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			continue // variadic tail: element type check not worth the noise
		}
		if pi >= sig.Params().Len() {
			continue
		}
		if !isCountersPtr(sig.Params().At(pi).Type()) {
			continue
		}
		if reason, ok := analysis.Annotation(pass.Fset, nocounters, arg.Pos()); ok {
			if reason == "" {
				pass.Reportf(arg.Pos(), "bare //xrvet:nocounters escape: add a justification (//xrvet:nocounters <reason>)")
			}
			continue
		}
		pass.Reportf(arg.Pos(), "nil Counters passed to a counted layer while the caller has a *Counters; thread it through or annotate //xrvet:nocounters <reason>")
	}
}
