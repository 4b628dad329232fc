// Package spanend checks that every started obs.Span is ended on every
// path. A call to a method named StartSpan returning a *Span starts a
// span; the span must reach End or EndDur — directly, through a defer,
// or inside a deferred function literal — before the function returns or
// re-enters a loop iteration, on success and error paths alike. A span
// that is never ended never reaches its trace's flight-recorder record,
// so the request's slow-trace evidence silently loses the span and every
// child under it.
//
// The check is flow-sensitive, in the manner of pinleak: it walks every
// path through the function body tracking the set of unended spans. It
// understands the idiomatic shapes the tracing plumbing uses:
//
//   - nil guards: the Span API is nil-safe and span-producing wrappers
//     return nil when tracing is off, so on the `sp == nil` side of a
//     guard the obligation vanishes;
//   - defer end, including `defer sp.End()` and defers of function
//     literals whose body ends the span;
//   - ownership transfer: returning the span (which marks the function
//     as a span-returning wrapper whose callers inherit the obligation),
//     assigning it to a field, passing it to another function, or
//     storing it in a composite literal;
//   - goroutine bodies: function literals are checked as functions in
//     their own right.
//
// Matching is by method name and result type name (StartSpan returning a
// named type Span), so analysistest packages can model the obs API with
// local stand-in types. `//xrvet:spanend-ignore <reason>` on a function
// declaration suppresses the check for that function; the reason is
// mandatory. The path walk itself is package flow's; this package is the
// hook table that says what starts and ends a span.
package spanend

import (
	"go/ast"
	"go/types"

	"xrtree/internal/analysis"
	"xrtree/internal/analysis/flow"
)

// Analyzer is the spanend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "check that every started obs.Span is ended (End/EndDur) on all paths",
	Run:  hooks.Run,
}

const discarded = "span leak: started span from %s is discarded — end it or hand it to an owner"

var hooks = &flow.Hooks{
	Directive: "//xrvet:spanend-ignore",
	Acquires: func(w *flow.Walker, call *ast.CallExpr) bool {
		return analysis.CalleeName(call) == "StartSpan" && isSpanType(w.Pass.TypesInfo.TypeOf(call))
	},
	Bind:     bind,
	Released: endReceiver,
	// A span assigned to another span variable follows it (aliasing);
	// stored anywhere else — a field, an interface — its new holder owns
	// the End.
	Follows: func(w *flow.Walker, id *ast.Ident) bool {
		return isSpanType(w.Pass.TypesInfo.TypeOf(id))
	},
	// A closure capturing the span takes over its lifecycle (parallel task
	// bodies end their own spans).
	Captures: true,
	// Returning a span makes the function a span-returning wrapper: its
	// callers own the span at that result index.
	Returned: func(w *flow.Walker, _ flow.Obligation, i int) {
		w.RecordWrapper(i)
	},
	Discarded:   discarded,
	Overwritten: "span leak: %s is overwritten while still unended (started at line %d)",
	Leaked:      "span leak: %s started at line %d is not ended on this return path",
	LoopLeaked:  "span leak: %s started at line %d is not ended when the loop repeats",
}

// bind tracks the span a starting call hands to lhs: StartSpan's only
// result, or a wrapper's result at its recorded index. A call returned
// directly passes its span on only when the span is its first result.
func bind(w *flow.Walker, call *ast.CallExpr, lhs []ast.Expr) (flow.Obligation, bool) {
	idx, _ := w.Wrapper(call)
	if lhs == nil {
		return flow.Obligation{}, idx == 0
	}
	if idx >= len(lhs) {
		return flow.Obligation{}, false
	}
	id, ok := lhs[idx].(*ast.Ident)
	if !ok {
		return flow.Obligation{}, false
	}
	if id.Name == "_" {
		w.Report(call.Pos(), discarded, types.ExprString(call.Fun))
		return flow.Obligation{}, false
	}
	obj := w.Obj(id)
	return flow.Obligation{Key: id.Name, Obj: obj, Data: obj, Nilable: true}, obj != nil
}

// endReceiver returns the span variable a `sp.End()` / `sp.EndDur(d)`
// call ends, or nil.
func endReceiver(w *flow.Walker, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "EndDur") {
		return nil
	}
	if _, ok := sel.X.(*ast.Ident); !ok || !isSpanType(w.Pass.TypesInfo.TypeOf(sel.X)) {
		return nil
	}
	return sel.X
}

func isSpanType(t types.Type) bool {
	return analysis.TypeNameIs(t, "", "Span")
}
