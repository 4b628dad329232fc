package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Type- and call-matching helpers shared by the analyzers. Matching is by
// type *name* (optionally qualified by package name), not by import path:
// the repo's own packages match naturally, and analysistest packages can
// model bufferpool.Pool or metrics.Counters with local stand-in types.

// NamedType returns the named type underlying t, unwrapping pointers and
// aliases, or nil.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// TypeNameIs reports whether t (possibly behind a pointer) is a named
// type with the given name. If pkg is non-empty the defining package's
// name must match too; testdata stand-ins are exempted by passing "".
func TypeNameIs(t types.Type, pkg, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj().Name() != name {
		return false
	}
	if pkg == "" {
		return true
	}
	p := n.Obj().Pkg()
	return p != nil && p.Name() == pkg
}

// ReceiverOf resolves the receiver expression type of a method call
// `x.M(...)`. It returns nil for non-selector calls.
func ReceiverOf(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return info.TypeOf(sel.X)
}

// IsMethodCall reports whether call is `x.name(...)` with x of named type
// recvName (any package — the analyzers' tables are name-scoped).
func IsMethodCall(info *types.Info, call *ast.CallExpr, recvName, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return TypeNameIs(info.TypeOf(sel.X), "", recvName)
}

// CalleeName returns the bare called-function name of call: "M" for both
// x.M(...) and M(...), "" otherwise.
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// CalleeObj returns the object of the function or method call invokes by
// name — x.M(...) or M(...) — or nil.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.Ident:
		return info.Uses[fun]
	}
	return nil
}

// Comment directives ------------------------------------------------------

// LineKey identifies one source line of one file.
type LineKey struct {
	File string
	Line int
}

// CommentLines returns, per (file, line), the trailing text of every
// comment beginning with directive (for example "//xrvet:bounded").
// Analyzers use it for annotation escape hatches.
func CommentLines(fset *token.FileSet, files []*ast.File, directive string) map[LineKey]string {
	out := map[LineKey]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, directive); ok {
					pos := fset.Position(c.Pos())
					out[LineKey{File: pos.Filename, Line: pos.Line}] = strings.TrimSpace(rest)
				}
			}
		}
	}
	return out
}

// Annotation returns the trailing justification text of the directive on
// pos's line or the line directly above, and whether one is present. An
// empty string with ok=true is a bare, unjustified escape — every
// analyzer reports those as findings.
func Annotation(fset *token.FileSet, lines map[LineKey]string, pos token.Pos) (string, bool) {
	p := fset.Position(pos)
	if reason, ok := lines[LineKey{File: p.Filename, Line: p.Line}]; ok {
		return reason, true
	}
	reason, ok := lines[LineKey{File: p.Filename, Line: p.Line - 1}]
	return reason, ok
}
