// Package walheld proves the WAL no-steal protocol at the fetch layer:
// every page fetched inside an open transaction must come through a
// held-frame fetch (Pool.FetchHeld / FetchNewHeld). A plain Fetch in a
// mutation path produces a frame the commit's snapshot never sees — its
// after-image never reaches the log, and eviction can steal it before the
// commit is durable. PR 7's crash harness caught exactly this bug
// dynamically in the stab-chain maintenance code; this analyzer decides
// it statically.
//
// A function is a mutation entry point when it opens a transaction
// (calls Pool.Begin, directly or through a same-package helper like
// blink's beginTx). Code is "in-Tx" from that call onward, and every
// same-package function called from in-Tx code is wholly in-Tx —
// propagated to a fixpoint, so helpers inherit their callers'
// obligations the way core's fetchStab chain does. Any plain fetch
// (Fetch, FetchTraced, FetchCopy, FetchCopyTraced, FetchNew) at an in-Tx
// position is flagged.
//
// The analysis is per package, and one mutation spans two: the
// transaction bracket of every btree and core mutation is in
// internal/blink, whose write layer then calls the XR-tree's stab upkeep
// in core through blink.Hooks. blink is checked as above, its bracket
// being an ordinary opener. In the owner's package, every method that
// implements a blink.Hooks method is wholly in-Tx, as if called from an
// opener: the hooks run inside blink's transaction (or its unlogged bulk
// build), so their callees are checked too. A hook reaches pages through
// blink.Writer's held-page helpers, which are not pool calls and pass.
//
// Matching is by type and method name (a named type Pool with the fetch
// methods, an interface Hooks of a package named blink), so analysistest
// packages can model the pool locally. The region tracking is lexical
// within a function: in the repo's idiom the transaction opens at the top
// of the mutation and commits in a deferred closure, so source position
// order coincides with execution order.
//
// `//xrvet:unlogged <reason>` on the call line (or the line above, or
// the function declaration) escapes an audited unlogged write — bulk
// builds whose durability point is the store's explicit save. The
// justification is mandatory; a bare `//xrvet:unlogged` is itself a
// finding.
package walheld

import (
	"go/ast"
	"go/token"
	"go/types"

	"xrtree/internal/analysis"
)

// Analyzer is the walheld analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "walheld",
	Doc:  "check that every page fetch inside an open WAL transaction is a held-frame fetch",
	Run:  run,
}

// heldFetches are the transaction-aware fetches; plainFetches bypass the
// hold protocol and are forbidden at in-Tx positions.
var (
	heldFetches = map[string]bool{
		"FetchHeld": true, "FetchNewHeld": true,
	}
	plainFetches = map[string]bool{
		"Fetch": true, "FetchTraced": true, "FetchCopy": true,
		"FetchCopyTraced": true, "FetchNew": true,
	}
)

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:     pass,
		openAt:   map[types.Object]token.Pos{},
		inTx:     map[types.Object]bool{},
		unlogged: analysis.CommentLines(pass.Fset, pass.Files, "//xrvet:unlogged"),
	}
	c.seedHooks()
	// Fixpoint: discover transaction openers (and the position their Tx
	// opens at), then functions called from in-Tx code, until nothing
	// changes. Opener positions only move earlier and the in-Tx set only
	// grows, so this terminates.
	for {
		c.changed = false
		c.scanAll(false)
		if !c.changed {
			break
		}
	}
	c.scanAll(true)
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	// openAt maps a function to the position after which its body runs
	// inside an open transaction (it calls Pool.Begin or an opener).
	openAt map[types.Object]token.Pos
	// inTx marks functions wholly in-Tx: called from in-Tx code.
	inTx     map[types.Object]bool
	unlogged map[analysis.LineKey]string
	changed  bool
}

// seedHooks marks wholly in-Tx every method declared in the package that
// implements a method of blink.Hooks: blink's write layer calls them
// inside its transaction.
func (c *checker) seedHooks() {
	var hooks *types.Interface
	for _, imp := range c.pass.Pkg.Imports() {
		if obj := imp.Scope().Lookup("Hooks"); imp.Name() == "blink" && obj != nil {
			hooks, _ = obj.Type().Underlying().(*types.Interface)
		}
	}
	if hooks == nil {
		return
	}
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			obj, _ := c.pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			recv := obj.Type().(*types.Signature).Recv().Type()
			if !types.Implements(recv, hooks) && !types.Implements(types.NewPointer(recv), hooks) {
				continue
			}
			for i := range hooks.NumMethods() {
				if hooks.Method(i).Name() == obj.Name() {
					c.inTx[obj] = true
				}
			}
		}
	}
}

func (c *checker) scanAll(report bool) {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.scanFunc(fn, report)
		}
	}
}

func (c *checker) scanFunc(fn *ast.FuncDecl, report bool) {
	obj := c.pass.TypesInfo.Defs[fn.Name]
	// start is the position from which this body is in-Tx; NoPos when the
	// function never runs inside a transaction. Updated in source order as
	// opener calls are encountered.
	start := token.NoPos
	if obj != nil && c.inTx[obj] {
		start = fn.Body.Pos()
	} else if obj != nil {
		if p, ok := c.openAt[obj]; ok {
			start = p
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeObj(c.pass.TypesInfo, call)
		opens := analysis.IsMethodCall(c.pass.TypesInfo, call, "Pool", "Begin")
		if !opens && callee != nil {
			_, opens = c.openAt[callee]
		}
		if opens {
			if obj != nil {
				if old, ok := c.openAt[obj]; !ok || call.End() < old {
					c.openAt[obj] = call.End()
					c.changed = true
				}
			}
			if !start.IsValid() || call.End() < start {
				start = call.End()
			}
			return true
		}
		inTxHere := start.IsValid() && call.Pos() >= start
		if inTxHere && callee != nil && callee.Pkg() == c.pass.Pkg && !c.inTx[callee] {
			c.inTx[callee] = true
			c.changed = true
		}
		if report && inTxHere {
			c.checkFetch(fn, call)
		}
		return true
	})
}

func (c *checker) checkFetch(fn *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !plainFetches[sel.Sel.Name] {
		return
	}
	if !analysis.TypeNameIs(c.pass.TypesInfo.TypeOf(sel.X), "", "Pool") {
		return
	}
	reason, annotated := analysis.Annotation(c.pass.Fset, c.unlogged, call.Pos())
	if !annotated {
		reason, annotated = analysis.Annotation(c.pass.Fset, c.unlogged, fn.Pos())
	}
	if annotated {
		if reason == "" {
			c.pass.Reportf(call.Pos(),
				"bare //xrvet:unlogged escape on %s: add a justification (//xrvet:unlogged <reason>)",
				types.ExprString(call.Fun))
		}
		return
	}
	c.pass.Reportf(call.Pos(),
		"unlogged page fetch in a mutation transaction: %s bypasses the held-frame protocol — use FetchHeld/FetchNewHeld so the commit logs the page's after-image, or annotate an audited bulk-build path with //xrvet:unlogged <reason>",
		types.ExprString(call.Fun))
}
