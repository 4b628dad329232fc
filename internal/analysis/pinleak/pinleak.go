// Package pinleak checks that every buffer-pool pin is released on every
// path. A call to Pool.Fetch or Pool.FetchNew (or to a package-local
// wrapper that returns pinned page data, like core's fetchStab) pins a
// page; the pin must reach Pool.Unpin or Pool.Discard — directly, through
// a defer, or by handing the page id to another function that assumes
// ownership — before the function returns or re-enters a loop iteration.
//
// The check is flow-sensitive: it walks every path through the function
// body, tracking the set of held pins per path. It understands the
// idiomatic shapes the storage layers use:
//
//   - error guards: after `data, err := pool.Fetch(id)`, the pin exists
//     only on the err == nil side of a guard on that same err variable;
//   - defer release, including `defer pool.Unpin(id, false)` and defers
//     of function literals whose body releases the pin;
//   - releases in any expression position: `return pool.Unpin(id, true)`,
//     `if err := pool.Unpin(id, false); err != nil`, `err = pool.Unpin(…)`;
//   - ownership transfer: passing the page id to a non-release call,
//     storing the id or data in a variable, field, or composite literal,
//     or returning the data (which marks the function as a pin-returning
//     wrapper whose callers then inherit the obligation).
//
// Matching is by type and method name (a named type Pool with
// Fetch/FetchNew/Unpin/Discard methods), so analysistest packages can
// model the pool locally. `//xrvet:pinleak-ignore <reason>` on a function
// declaration suppresses the check for that function; the reason is
// mandatory. The path walk itself is package flow's; this package is the
// hook table that says what pins and unpins.
package pinleak

import (
	"go/ast"
	"go/types"

	"xrtree/internal/analysis"
	"xrtree/internal/analysis/flow"
)

// Analyzer is the pinleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "pinleak",
	Doc:  "check that every buffer-pool Fetch/FetchNew is paired with Unpin/Discard on all paths",
	Run:  hooks.Run,
}

var hooks = &flow.Hooks{
	Directive: "//xrvet:pinleak-ignore",
	Acquires: func(w *flow.Walker, call *ast.CallExpr) bool {
		return poolCall(w, call, "Fetch", "FetchNew")
	},
	Bind: bind,
	Released: func(w *flow.Walker, call *ast.CallExpr) ast.Expr {
		if len(call.Args) > 0 && poolCall(w, call, "Unpin", "Discard") {
			return call.Args[0]
		}
		return nil
	},
	// Pinless copies and readahead hints read page ids without assuming
	// any pin obligation, so passing a pinned id to them is not an
	// ownership transfer (a hint must never be mistaken for an Unpin).
	Advisory: func(w *flow.Walker, call *ast.CallExpr) bool {
		return poolCall(w, call, "FetchCopy", "TryFetchCopy", "Prefetch")
	},
	// Returning a pin whose page id came in as a parameter makes the
	// function a pin-returning wrapper: calling it pins the page passed at
	// that parameter index.
	Returned: func(w *flow.Walker, o flow.Obligation, _ int) {
		if idx, ok := w.Param(o.Obj); ok {
			w.RecordWrapper(idx)
		}
	},
	Discarded:   "pin leak: pinned result of %s is discarded",
	Overwritten: "pin leak: %s is overwritten while still pinned (fetched at line %d)",
	Leaked:      "pin leak: %s fetched at line %d is still pinned on this return path",
	LoopLeaked:  "pin leak: %s fetched at line %d is still pinned when the loop repeats",
}

// bind builds the pin an acquisition holds. The pin is keyed on its page
// id: FetchNew's first result, otherwise the id argument. Its data and
// error variables come from the remaining results; when the call is
// returned directly there are none.
func bind(w *flow.Walker, call *ast.CallExpr, lhs []ast.Expr) (flow.Obligation, bool) {
	if poolCall(w, call, "FetchNew") {
		if len(lhs) != 3 {
			return flow.Obligation{}, false
		}
		return flow.Obligation{Key: types.ExprString(lhs[0]), Obj: w.Obj(lhs[0]), Data: w.Obj(lhs[1]), Err: w.Obj(lhs[2])}, true
	}
	id := idArg(w, call)
	if id == nil || (lhs != nil && len(lhs) != 2) {
		return flow.Obligation{}, false
	}
	o := flow.Obligation{Key: types.ExprString(id), Obj: w.Obj(id)}
	if lhs != nil {
		o.Data, o.Err = w.Obj(lhs[0]), w.Obj(lhs[1])
	}
	return o, true
}

// idArg returns the page-id argument of Fetch or of a pin-returning
// wrapper, or nil.
func idArg(w *flow.Walker, call *ast.CallExpr) ast.Expr {
	if poolCall(w, call, "Fetch") && len(call.Args) == 1 {
		return call.Args[0]
	}
	if idx, ok := w.Wrapper(call); ok && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// poolCall reports whether call is a Pool method with one of names.
func poolCall(w *flow.Walker, call *ast.CallExpr, names ...string) bool {
	for _, name := range names {
		if analysis.IsMethodCall(w.Pass.TypesInfo, call, "Pool", name) {
			return true
		}
	}
	return false
}
