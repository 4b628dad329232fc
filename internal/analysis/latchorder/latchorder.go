// Package latchorder enforces the repo's lock-acquisition order. The
// concurrency design (the sharded pool, the WAL, the cluster router and
// the B-link protocol) layers six lock classes:
//
//	level 1: Tree.wlatch     — btree/core writer mutex
//	level 2: Pool.ckptGate   — WAL checkpoint gate (RWMutex, PR 7)
//	level 3: Tree.pl         — per-page latches (platch.Table)
//	level 4: shard.mu        — buffer-pool shard mutexes
//	level 5: shardState.mu   — cluster coordinator inventory mutex
//	level 6: Prober.mu       — cluster health prober mutex
//
// A goroutine may only acquire locks in strictly increasing level order,
// with one deliberate exception: page latches nest with each other.
// B-link latch coupling acquires a second (or third) page latch while
// holding one, but ONLY rightward or downward — right sibling during a
// split's prev-pointer fix, left-to-right sibling pair during a
// rebalance, parent-then-children top-down. Those second same-level
// acquisitions must go through platch's LockRight method; a plain
// Lock/RLock while a page latch is held is flagged, because nothing then
// distinguishes the safe rightward coupling from a left-or-upward
// acquisition that deadlocks against a writer coupling in the documented
// direction. (LockRight is operationally identical to Lock — the split
// name exists exactly so this analyzer can audit coupling sites.)
//
// Mutations hold wlatch across the whole transaction and commit takes
// the checkpoint gate's read side under it (CommitTx, BeginUnlogged
// under BulkLoad); page latches nest inside both, pool shard mutexes
// under those; the cluster locks are router-side leaves never
// nested with pool locks or each other. Acquiring a lock at a level at
// or below one already held — including a second lock of the same
// non-page class, which neither the sharded pool nor the coordinator
// ever nests — risks deadlock with another goroutine locking in the
// documented order.
//
// The check is lexical and branch-aware within one function: it tracks
// locks acquired via x.Lock()/x.RLock()/x.TryLock()/x.TryRLock()/
// x.LockRight() on classified fields (releases via Unlock/RUnlock and
// defers understood; page-latch identity includes the page-ID argument)
// and flags both direct acquisitions and calls to methods that are known
// to acquire a level (Pool.Fetch acquires a shard, Tree.Insert acquires
// wlatch, Pool.CommitTx the checkpoint gate, and so on). Same-package
// helpers inherit summaries from the locks their bodies acquire,
// propagated to a fixpoint through same-package calls.
// `//xrvet:latchorder-ignore <reason>` on a function declaration
// suppresses the check for that function; the reason is mandatory, and a
// bare escape is itself a finding.
package latchorder

import (
	"go/ast"
	"go/types"

	"xrtree/internal/analysis"
)

// Analyzer is the latchorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "latchorder",
	Doc:  "enforce wlatch → ckpt-gate → page-latch (LockRight coupling) → pool-shard → cluster lock acquisition order",
	Run:  run,
}

// lockClasses maps (receiver type name, field name) of a latch field to
// its level. Tree.pl is not a mutex but a platch.Table; its Lock-family
// methods take the page ID as the first argument, which the checker folds
// into the lock identity.
var lockClasses = map[[2]string]int{
	{"Tree", "wlatch"}:   1,
	{"Pool", "ckptGate"}: 2,
	{"Tree", "pl"}:       pageLatchLevel,
	{"shard", "mu"}:      4,
	{"shardState", "mu"}: 5,
	{"Prober", "mu"}:     6,
}

// pageLatchLevel is the one level where same-level nesting is legal —
// through LockRight only (B-link rightward/downward coupling).
const pageLatchLevel = 3

// summary is what the checker knows about a function: the lowest lock
// level it acquires, and — when that includes the page-latch level —
// whether every page latch it takes goes through LockRight, making it
// safe to call while a page latch is already held (B-link coupling
// delegated to a helper, e.g. a merge's prev-pointer fix).
type summary struct {
	level int
	right bool
}

// methodLevels summarizes exported entry points of other packages: the
// lowest lock level the method acquires internally. Matching is by
// receiver type name, so btree.Tree, core.Tree and the read layer they
// embed, blink.Tree, share the Tree rows.
var methodLevels = map[[2]string]int{
	// Mutations take wlatch; so do the exact-answer fallback inside the
	// ancestor probe, the full checker, and the space census.
	{"Tree", "Insert"}: 1, {"Tree", "Delete"}: 1, {"Tree", "BulkLoad"}: 1,
	{"Tree", "FindAncestors"}: 1, {"Tree", "AppendAncestors"}: 1,
	{"Tree", "FindParent"}: 1, {"Tree", "CheckInvariants"}: 1,
	{"Tree", "Space"}: 1,
	// Pure B-link readers latch pages only: their lowest acquisition is a
	// shared page latch (3). Calling one while a page latch is held risks
	// self-deadlock on that same page's latch.
	{"Tree", "Lookup"}: 3, {"Tree", "SeekGE"}: 3, {"Tree", "Scan"}: 3,
	{"Tree", "Range"}: 3, {"Tree", "FindDescendants"}: 3,
	{"Tree", "FindChildren"}: 3, {"Tree", "MaxNesting"}: 3,
	{"Tree", "SeekInto"}: 3,
	// platch.Table through a non-field receiver (a local alias); calls
	// through a classified field (t.pl.Lock) are handled by lockCall.
	{"Table", "Lock"}: pageLatchLevel, {"Table", "LockRight"}: pageLatchLevel,
	{"Table", "RLock"}: pageLatchLevel,
	// The WAL protocol methods take the checkpoint gate: commits and
	// unlogged bulk builds on the read side, checkpoints on the write side.
	{"Pool", "CommitTx"}: 2, {"Pool", "BeginUnlogged"}: 2,
	{"Pool", "Checkpoint"}: 2, {"Pool", "CheckpointWait"}: 2,
	{"Pool", "Fetch"}: 4, {"Pool", "FetchTraced"}: 4,
	{"Pool", "FetchCopy"}: 4, {"Pool", "FetchCopyTraced"}: 4,
	{"Pool", "FetchNew"}:  4,
	{"Pool", "FetchHeld"}: 4, {"Pool", "FetchHeldTraced"}: 4,
	{"Pool", "FetchNewHeld"}: 4, {"Pool", "UnpinTx"}: 4,
	{"Pool", "DiscardTx"}: 4, {"Pool", "FreeTx"}: 4,
	{"Pool", "Unpin"}: 4, {"Pool", "Discard"}: 4, {"Pool", "FlushAll"}: 4,
	{"Pool", "DropClean"}: 4, {"Pool", "PinnedCount"}: 4,
	// Cluster router-side leaves: the coordinator's per-shard inventory
	// mutex and the health prober's state mutex. Prober.Start spawns the
	// probe loop and Close joins it, so both count as acquisitions — Close
	// while holding the mutex would deadlock against the loop.
	{"Coordinator", "Gather"}: 5, {"Coordinator", "Status"}: 5,
	{"Coordinator", "Backends"}: 5,
	{"Prober", "Up"}:            6, {"Prober", "Observe"}: 6,
	{"Prober", "Start"}: 6, {"Prober", "Close"}: 6,
}

const orderDoc = "required order: wlatch (1) → ckpt gate (2) → page latch (3, second acquisition must be LockRight) → pool shard (4) → cluster shard state (5) → prober (6)"

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:      pass,
		summaries: map[types.Object]summary{},
		ignore:    analysis.CommentLines(pass.Fset, pass.Files, "//xrvet:latchorder-ignore"),
	}
	// Fixpoint: derive a lock summary for every same-package function
	// from the locks its body acquires and the summaries of the functions
	// it calls. Both components are monotone (level only decreases, right
	// only decays true→false), so the iteration terminates.
	for {
		changed := false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				s := c.bodySummary(fn.Body)
				obj := pass.TypesInfo.Defs[fn.Name]
				if obj == nil || s.level == 0 {
					continue
				}
				old, seen := c.summaries[obj]
				if !seen || s.level < old.level || (old.right && !s.right) {
					if seen && s.level > old.level {
						s.level = old.level
					}
					if seen && !old.right {
						s.right = false
					}
					c.summaries[obj] = s
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if reason, ok := analysis.Annotation(pass.Fset, c.ignore, fn.Pos()); ok {
				if reason == "" {
					pass.Reportf(fn.Pos(), "bare //xrvet:latchorder-ignore escape: add a justification (//xrvet:latchorder-ignore <reason>)")
				}
				continue
			}
			// The function that *implements* a lock acquisition is where
			// the classified Lock call lives; it is checked like any
			// other, which also validates the pool's own internals.
			c.walk(fn.Body.List, nil)
		}
	}
	return nil, nil
}

type checker struct {
	pass      *analysis.Pass
	summaries map[types.Object]summary
	ignore    map[analysis.LineKey]string
}

// held is one lock currently held at this program point.
type held struct {
	level int
	key   string // source text of the lock expression, e.g. "t.latch"
}

// bodySummary returns the lowest level fn's body acquires directly or
// through already-summarized same-package calls (level 0 = none), and
// whether every page-latch acquisition it makes — direct or delegated —
// goes through LockRight.
func (c *checker) bodySummary(body *ast.BlockStmt) summary {
	s := summary{right: true}
	record := func(lvl int, right bool) {
		if lvl == 0 {
			return
		}
		if s.level == 0 || lvl < s.level {
			s.level = lvl
		}
		if lvl == pageLatchLevel && !right {
			s.right = false
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lock, acquire, right := c.lockCall(call); lock != nil {
			if acquire {
				record(lock.level, right)
			}
			return true
		}
		cs := c.callSummary(call)
		record(cs.level, cs.right)
		return true
	})
	return s
}

// lockCall classifies call as Lock/RLock/LockRight (acquire=true) or
// Unlock/RUnlock (acquire=false) on a classified latch field. right
// reports an acquisition through LockRight — the only form allowed to
// nest at the page-latch level. Page-latch identity folds in the page-ID
// argument, so Lock(a)…Unlock(a) brackets balance per page.
func (c *checker) lockCall(call *ast.CallExpr) (lock *held, acquire, right bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	switch sel.Sel.Name {
	// TryLock/TryRLock are acquisitions for ordering purposes: on the
	// success branch the lock is held, and even attempting one out of
	// order means the code was written against the wrong level.
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "LockRight":
		acquire, right = true, true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	fieldSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	recv := analysis.NamedType(c.pass.TypesInfo.TypeOf(fieldSel.X))
	if recv == nil {
		return nil, false, false
	}
	lvl, ok := lockClasses[[2]string{recv.Obj().Name(), fieldSel.Sel.Name}]
	if !ok {
		return nil, false, false
	}
	key := types.ExprString(sel.X)
	if lvl == pageLatchLevel && len(call.Args) > 0 {
		key += "(" + types.ExprString(call.Args[0]) + ")"
	}
	return &held{level: lvl, key: key}, acquire, right
}

// callSummary returns the summarized locks call acquires (level 0 =
// none).
func (c *checker) callSummary(call *ast.CallExpr) summary {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if recv := analysis.NamedType(c.pass.TypesInfo.TypeOf(sel.X)); recv != nil {
			if lvl, ok := methodLevels[[2]string{recv.Obj().Name(), sel.Sel.Name}]; ok {
				// The only right-only row is the coupling method itself.
				return summary{level: lvl, right: lvl == pageLatchLevel && sel.Sel.Name == "LockRight"}
			}
		}
	}
	if s, ok := c.summaries[analysis.CalleeObj(c.pass.TypesInfo, call)]; ok {
		return s
	}
	return summary{}
}

// walk processes a statement list with the current held set, recursing
// into branches with copies. The returned set is the held set at normal
// fall-through, taking the intersection across branch exits.
func (c *checker) walk(stmts []ast.Stmt, hs []held) []held {
	for _, s := range stmts {
		hs = c.stmt(s, hs)
	}
	return hs
}

func (c *checker) stmt(s ast.Stmt, hs []held) []held {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return c.expr(s.X, hs)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			hs = c.expr(e, hs)
		}
		return hs
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			hs = c.expr(e, hs)
		}
		return hs
	case *ast.DeferStmt:
		// A deferred unlock runs at exit: the lock stays held for the
		// remainder of the body, which is exactly what hs models, so a
		// deferred release changes nothing. Deferred acquisitions or
		// level-acquiring calls are checked against the current set.
		if lock, acquire, _ := c.lockCall(s.Call); lock != nil && !acquire {
			return hs
		}
		return c.expr(s.Call, hs)
	case *ast.GoStmt:
		// The goroutine starts with an empty held set; only the argument
		// expressions are evaluated at the go statement itself.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walk(lit.Body.List, nil)
		}
		for _, a := range s.Call.Args {
			hs = c.expr(a, hs)
		}
		return hs
	case *ast.IfStmt:
		if s.Init != nil {
			hs = c.stmt(s.Init, hs)
		}
		hs = c.expr(s.Cond, hs)
		thenOut := c.walk(s.Body.List, clone(hs))
		elseOut := clone(hs)
		if s.Else != nil {
			elseOut = c.stmt(s.Else, elseOut)
		}
		return intersect(thenOut, elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			hs = c.stmt(s.Init, hs)
		}
		hs = c.expr(s.Cond, hs)
		c.walk(s.Body.List, clone(hs))
		return hs
	case *ast.RangeStmt:
		hs = c.expr(s.X, hs)
		c.walk(s.Body.List, clone(hs))
		return hs
	case *ast.SwitchStmt:
		if s.Init != nil {
			hs = c.stmt(s.Init, hs)
		}
		hs = c.expr(s.Tag, hs)
		c.walkClauses(s.Body, hs)
		return hs
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			hs = c.stmt(s.Init, hs)
		}
		c.walkClauses(s.Body, hs)
		return hs
	case *ast.SelectStmt:
		c.walkClauses(s.Body, hs)
		return hs
	case *ast.BlockStmt:
		return c.walk(s.List, hs)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, hs)
	case *ast.SendStmt:
		hs = c.expr(s.Chan, hs)
		return c.expr(s.Value, hs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						hs = c.expr(v, hs)
					}
				}
			}
		}
		return hs
	}
	return hs
}

func (c *checker) walkClauses(body *ast.BlockStmt, hs []held) {
	for _, s := range body.List {
		switch cl := s.(type) {
		case *ast.CaseClause:
			c.walk(cl.Body, clone(hs))
		case *ast.CommClause:
			sub := clone(hs)
			if cl.Comm != nil {
				sub = c.stmt(cl.Comm, sub)
			}
			c.walk(cl.Body, sub)
		}
	}
}

// expr scans one expression for lock operations and level-acquiring
// calls, in evaluation order (good enough lexically), skipping function
// literals — those are separate goroutine/deferred bodies checked on
// their own with an empty held set.
func (c *checker) expr(e ast.Expr, hs []held) []held {
	if e == nil {
		return hs
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.walk(lit.Body.List, nil)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lock, acquire, right := c.lockCall(call); lock != nil {
			if acquire {
				c.checkAcquire(call, *lock, right, hs)
				hs = append(clone(hs), *lock)
			} else {
				hs = release(hs, lock.key)
			}
			return true
		}
		if cs := c.callSummary(call); cs.level != 0 {
			for _, h := range hs {
				if h.level < cs.level {
					continue
				}
				// A callee whose only page latches are LockRight couplings
				// may run under a held page latch (e.g. a rebalance helper
				// doing a merge's prev-pointer fix).
				if h.level == pageLatchLevel && cs.level == pageLatchLevel && cs.right {
					continue
				}
				c.pass.Reportf(call.Pos(),
					"latch order violation: calling %s (acquires level %d) while holding %s (level %d); %s",
					types.ExprString(call.Fun), cs.level, h.key, h.level, orderDoc)
			}
		}
		return true
	})
	return hs
}

func (c *checker) checkAcquire(call *ast.CallExpr, lock held, right bool, hs []held) {
	for _, h := range hs {
		if h.level < lock.level {
			continue
		}
		// B-link coupling: a second page latch is legal, but only through
		// LockRight so the rightward/downward direction is explicit at the
		// call site.
		if h.level == pageLatchLevel && lock.level == pageLatchLevel {
			if right {
				continue
			}
			c.pass.Reportf(call.Pos(),
				"latch order violation: acquiring page latch %s while holding %s; a second page latch must be taken with LockRight (right sibling or child only); %s",
				lock.key, h.key, orderDoc)
			continue
		}
		c.pass.Reportf(call.Pos(),
			"latch order violation: acquiring %s (level %d) while holding %s (level %d); %s",
			lock.key, lock.level, h.key, h.level, orderDoc)
	}
}

func clone(hs []held) []held {
	out := make([]held, len(hs))
	copy(out, hs)
	return out
}

func release(hs []held, key string) []held {
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].key == key {
			out := clone(hs)
			return append(out[:i], out[i+1:]...)
		}
	}
	return hs
}

func intersect(a, b []held) []held {
	var out []held
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}
