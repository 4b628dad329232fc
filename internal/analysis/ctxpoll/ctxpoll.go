// Package ctxpoll flags page-access and cursor-advance loops that never
// poll for cancellation. PR 3's cancellation work established the
// convention: long-running read paths carry a *metrics.Counters whose
// Ctx is polled via Counters.Interrupted at page-granular boundaries
// (directly, or through the join loops' strided poller). A loop that
// fetches pages or advances a join cursor without ever reaching an
// Interrupted check reintroduces the unbounded-cancellation-latency bug
// class that PR fixed by hand.
//
// Scope: only functions that take a *Counters parameter are checked —
// write-path helpers deliberately take none, because cancelling midway
// through a structure mutation would corrupt the tree, and functions
// without the parameter have nothing to poll. Loops that are bounded by
// construction (root-to-leaf descents bounded by tree height) are
// annotated `//xrvet:bounded <reason>` at the loop, which both documents
// and suppresses the finding. The reason is mandatory: a bare
// `//xrvet:bounded` suppresses nothing and is flagged itself, so every
// escape in the tree carries its audit trail.
package ctxpoll

import (
	"go/ast"
	"go/token"

	"xrtree/internal/analysis"
)

// Analyzer is the ctxpoll analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "flag page/cursor loops in Counters-carrying functions that never poll Counters.Interrupted",
	Run:  run,
}

// checkedPackages are the packages whose loops drive page I/O on read
// paths, blink being the read layer under core and btree. (Testdata
// packages reuse one of these names.)
var checkedPackages = map[string]bool{
	"blink": true, "core": true, "btree": true, "elemlist": true, "join": true,
}

// triggers are the call names whose presence makes a loop page-bound or
// cursor-bound: fetching through the buffer pool (or core's fetchStab
// wrapper) and the join cursors' advance.
var triggers = map[string]bool{
	"Fetch": true, "FetchCopy": true, "fetchStab": true, "advance": true,
}

// polls are the call names that count as a cancellation poll: the
// Counters method and the join loops' strided wrapper.
var polls = map[string]bool{
	"Interrupted": true, "interrupted": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !checkedPackages[pass.Pkg.Name()] {
		return nil, nil
	}
	bounded := analysis.CommentLines(pass.Fset, pass.Files, "//xrvet:bounded")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasCountersParam(pass, fn.Type) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				body, pos := loopBody(n)
				if body == nil {
					return true
				}
				if reason, ok := analysis.Annotation(pass.Fset, bounded, pos); ok {
					// The escape documents as much as it suppresses: a
					// bare //xrvet:bounded with no justification is
					// itself a finding.
					if reason == "" && containsCall(body, triggers) && !containsCall(body, polls) {
						pass.Reportf(pos, "bare //xrvet:bounded escape: add a justification (//xrvet:bounded <reason>)")
					}
					return true
				}
				if containsCall(body, triggers) && !containsCall(body, polls) {
					pass.Reportf(pos, "loop fetches pages or advances a cursor but never polls Counters.Interrupted; poll, or annotate //xrvet:bounded <reason>")
				}
				return true
			})
		}
	}
	return nil, nil
}

func loopBody(n ast.Node) (*ast.BlockStmt, token.Pos) {
	switch s := n.(type) {
	case *ast.ForStmt:
		return s.Body, s.Pos()
	case *ast.RangeStmt:
		return s.Body, s.Pos()
	}
	return nil, token.NoPos
}

// hasCountersParam reports whether the function takes a parameter of
// type *Counters (a named type Counters, any package).
func hasCountersParam(pass *analysis.Pass, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, fld := range ftype.Params.List {
		if analysis.TypeNameIs(pass.TypesInfo.TypeOf(fld.Type), "", "Counters") {
			return true
		}
	}
	return false
}

// containsCall reports whether body contains a call to one of names,
// not counting function literals (they run elsewhere).
func containsCall(body *ast.BlockStmt, names map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && names[analysis.CalleeName(call)] {
			found = true
			return false
		}
		return true
	})
	return found
}
