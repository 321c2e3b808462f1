// Package locklint flags mutexes held across blocking operations: a
// channel send/receive, a WaitGroup.Wait, a time.Sleep, a
// simulation-engine step, a coalescer flush (earth.Coalescer's
// Add/FlushTo/Drain), or a livert executor's settle or retire executed
// under a sync.Mutex/RWMutex serialises — or deadlocks — the concurrency
// the engines exist to provide. livert's node mutexes in particular
// guard queues that the channel network feeds; holding one across a
// channel operation is the textbook lost-wakeup deadlock, and the
// coalescer's batch flush walks that same path (node locks, wakeup
// pokes) on its way to the destination queue. It patrols every package
// it is given: a lock outside the engines (earth's receipt set, the
// trace recorder) can sit on the same message path.
//
// The analysis is lexical and per-function: a region opens at X.Lock()
// (or X.RLock()) and closes at the matching X.Unlock() in the same
// function; `defer X.Unlock()` keeps the region open to the end of the
// function. Function-literal bodies are not entered — they usually run
// on another goroutine or after the region closes. sync.Cond.Wait is
// deliberately exempt: it releases the lock while blocked.
//
// A finding is silenced with //locklint:allow <reason>.
package locklint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"earth/internal/analysis/framework"
)

// Analyzer is the locklint pass.
var Analyzer = &framework.Analyzer{
	Name: "locklint",
	Doc: "flag mutexes held across blocking operations (channel ops, WaitGroup.Wait, " +
		"sleeps, engine steps, coalescer flushes, executor settles and retires)",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := map[string]token.Pos{}
			checkBlock(pass, fd.Body.List, held)
		}
	}
	return nil
}

// checkBlock walks statements in order, maintaining the set of held lock
// expressions (keyed by their source text). Control statements have
// their guard expressions checked and their bodies recursed; simple
// statements are checked whole, so every blocking site is reported
// exactly once.
func checkBlock(pass *framework.Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		checkStmt(pass, s, held)
	}
}

func checkStmt(pass *framework.Pass, s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		checkBlock(pass, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init, held)
		}
		reportBlockingExpr(pass, s.Cond, held)
		checkBlock(pass, s.Body.List, held)
		if s.Else != nil {
			checkStmt(pass, s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init, held)
		}
		reportBlockingExpr(pass, s.Cond, held)
		checkBlock(pass, s.Body.List, held)
	case *ast.RangeStmt:
		reportBlockingExpr(pass, s.X, held)
		checkBlock(pass, s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			checkStmt(pass, s.Init, held)
		}
		reportBlockingExpr(pass, s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				checkBlock(pass, cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				checkBlock(pass, cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			pass.Reportf(s.Pos(),
				"select without default while %s is held blocks the lock owner; "+
					"shrink the critical section or annotate //locklint:allow <reason>", anyOwner(held))
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				checkBlock(pass, cc.Body, held)
			}
		}
	default:
		if len(held) > 0 {
			reportBlocking(pass, s, held)
		}
		// Lock-set updates come after the blocking check: the Lock()
		// statement itself is not "under" its own lock.
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				switch lockKind(pass, call) {
				case "Lock", "RLock":
					recv := call.Fun.(*ast.SelectorExpr).X
					held[types.ExprString(recv)] = call.Pos()
				case "Unlock", "RUnlock":
					recv := call.Fun.(*ast.SelectorExpr).X
					delete(held, types.ExprString(recv))
				}
			}
		}
		// defer X.Unlock() deliberately leaves the held entry in place:
		// the region stays open to the end of the function.
	}
}

// anyOwner picks the lexically smallest held lock for stable messages.
func anyOwner(held map[string]token.Pos) string {
	owner := ""
	for k := range held {
		if owner == "" || k < owner {
			owner = k
		}
	}
	return owner
}

// reportBlockingExpr checks one guard expression (an if/for condition, a
// range or switch operand) for blocking operations.
func reportBlockingExpr(pass *framework.Pass, e ast.Expr, held map[string]token.Pos) {
	if e == nil || len(held) == 0 {
		return
	}
	reportBlockingNode(pass, e, held)
}

// lockKind classifies a call as a sync.Mutex/RWMutex lock or unlock.
func lockKind(pass *framework.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return ""
	}
	if !isSyncType(pass.TypeOf(sel.X), "Mutex", "RWMutex") {
		return ""
	}
	return sel.Sel.Name
}

// isSyncType reports whether t (possibly a pointer) is one of the named
// types from package sync.
func isSyncType(t types.Type, names ...string) bool {
	n := framework.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return slices.Contains(names, n.Obj().Name())
}

// reportBlocking flags blocking operations inside one simple statement
// while locks are held. Nested function literals are skipped, as is the
// body of a select carrying a default clause (a non-blocking poll).
func reportBlocking(pass *framework.Pass, s ast.Stmt, held map[string]token.Pos) {
	reportBlockingNode(pass, s, held)
}

func reportBlockingNode(pass *framework.Pass, root ast.Node, held map[string]token.Pos) {
	owner := anyOwner(held)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				return false // non-blocking poll: poke()-style wakeups
			}
			pass.Reportf(n.Pos(),
				"select without default while %s is held blocks the lock owner; "+
					"shrink the critical section or annotate //locklint:allow <reason>", owner)
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send while %s is held can block forever if the receiver needs the lock; "+
					"unlock first or annotate //locklint:allow <reason>", owner)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(),
					"channel receive while %s is held can block forever if the sender needs the lock; "+
						"unlock first or annotate //locklint:allow <reason>", owner)
			}
		case *ast.CallExpr:
			reportBlockingCall(pass, n, owner)
		}
		return true
	})
}

func reportBlockingCall(pass *framework.Pass, call *ast.CallExpr, owner string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Wait":
		if isSyncType(pass.TypeOf(sel.X), "WaitGroup") {
			pass.Reportf(call.Pos(),
				"WaitGroup.Wait while %s is held deadlocks if a waiter needs the lock; "+
					"unlock first or annotate //locklint:allow <reason>", owner)
		}
	case "Sleep":
		if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "time" {
			pass.Reportf(call.Pos(),
				"time.Sleep while %s is held stalls every contender; "+
					"unlock first or annotate //locklint:allow <reason>", owner)
		}
	case "Step", "RunBefore":
		if pass.MethodCallOn(call, "Engine", sel.Sel.Name) {
			pass.Reportf(call.Pos(),
				"engine %s while %s is held runs arbitrary handlers under the lock; "+
					"unlock first or annotate //locklint:allow <reason>", sel.Sel.Name, owner)
		}
	case "settle", "retire":
		// A livert executor that settles may end the run, and one that
		// retires hands its queues and private batch off through the push
		// path: both take node locks (its own included) and must run with
		// none held.
		if pass.MethodCallOn(call, "lnode", sel.Sel.Name) {
			pass.Reportf(call.Pos(),
				"executor %s while %s is held re-enters the push path or ends the run under the lock; "+
					"unlock first or annotate //locklint:allow <reason>", sel.Sel.Name, owner)
		}
	case "Add", "FlushTo", "Drain":
		// An earth.Coalescer ships through the engine's send path (Add
		// when a batch trips), which re-acquires node mutexes and pokes
		// wakeup channels on its way to the destination queue — calling
		// it with a lock held inverts the lock order or self-deadlocks.
		if pass.MethodCallOn(call, "Coalescer", sel.Sel.Name) {
			pass.Reportf(call.Pos(),
				"coalescer %s while %s is held re-enters the send path (node locks, wakeup channels) under the lock; "+
					"unlock first or annotate //locklint:allow <reason>", sel.Sel.Name, owner)
		}
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
