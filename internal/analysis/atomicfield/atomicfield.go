// Package atomicfield flags mixed atomic/plain access to struct fields.
//
// The repo's hot counters (pagefile physical-read stats, the pool sink's
// hit counters) are updated with sync/atomic from reader goroutines and
// scraped by the metrics endpoint. A field that is touched with
// atomic.AddUint64 in one place and read with a plain load in another is
// a data race the race detector only catches when both sides happen to
// run under -race at the same moment; statically the rule is simple —
// once any access to a field is atomic, every access must be.
//
// The analyzer collects every field whose address is taken as the first
// argument of a sync/atomic call (Add*, Load*, Store*, Swap*,
// CompareAndSwap*), then reports every other selector access to that
// field that is not itself part of an atomic call. Composite-literal
// keys are exempt — a literal builds a fresh, unshared value (the
// pagefile Stats() snapshot idiom) and cannot race.
// `//xrvet:atomicfield-ignore <reason>` on the access line (or the line
// above) escapes a proven-safe plain access — for example
// single-threaded construction before the value is shared. The
// justification is mandatory; a bare escape is itself a finding.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xrtree/internal/analysis"
)

// Analyzer is the atomicfield analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "check that fields accessed with sync/atomic are never accessed plainly",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	ignores := analysis.CommentLines(pass.Fset, pass.Files, "//xrvet:atomicfield-ignore")

	// Pass 1: collect the fields used atomically and the exact selector
	// nodes that appear inside atomic calls (those are not plain uses).
	atomicFields := map[types.Object]token.Pos{}
	inAtomicCall := map[ast.Node]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(pass.TypesInfo, call) || len(call.Args) == 0 {
				return true
			}
			addr, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			// &x.f, possibly through nested selectors (&t.stats.Reads):
			// only the leaf field becomes atomic-only.
			sel, ok := addr.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := fieldObj(pass.TypesInfo, sel)
			if obj == nil {
				return true
			}
			if _, seen := atomicFields[obj]; !seen {
				atomicFields[obj] = sel.Pos()
			}
			inAtomicCall[sel] = true
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil, nil
	}

	// Pass 2: every other appearance of those fields is a plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Composite-literal keys are deliberately not flagged: a
			// literal builds a fresh, unshared value (the pagefile
			// Stats() snapshot idiom), which cannot race.
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomicCall[sel] {
				return true
			}
			obj := fieldObj(pass.TypesInfo, sel)
			pos := sel.Pos()
			name := types.ExprString(sel)
			firstAtomic, tracked := atomicFields[obj]
			if obj == nil || !tracked {
				return true
			}
			reason, annotated := analysis.Annotation(pass.Fset, ignores, pos)
			if annotated {
				if reason == "" {
					pass.Reportf(pos,
						"bare //xrvet:atomicfield-ignore escape: add a justification (//xrvet:atomicfield-ignore <reason>)")
				}
				return true
			}
			pass.Reportf(pos,
				"non-atomic access to %s: the field is accessed with sync/atomic at line %d — mixing plain and atomic access races; use atomic.Load/Store here or annotate //xrvet:atomicfield-ignore <reason>",
				name, pass.Fset.Position(firstAtomic).Line)
			return true
		})
	}
	return nil, nil
}

// isAtomicCall reports whether call is sync/atomic.{Add,Load,Store,
// Swap,CompareAndSwap}*.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[x].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(sel.Sel.Name, prefix) {
			return true
		}
	}
	return false
}

// fieldObj resolves a selector to the struct field it names, or nil when
// it names something else (method, package member, qualified type).
func fieldObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}
