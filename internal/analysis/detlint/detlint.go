// Package detlint is the determinism linter: it mechanically enforces the
// repo's byte-reproducibility contract (same plan + seed => identical
// stats JSON and trace bytes) inside the determinism-critical packages.
//
// It flags, with type information:
//
//   - time.Now / time.Since — wall-clock reads make virtual-time output
//     run-dependent (livert, the wall-clock engine, is deliberately out of
//     scope);
//   - package-level math/rand functions — the process-global source is not
//     derived from Config.Seed (rand.New / rand.NewSource are fine);
//   - ranges over maps whose body can reach an output, accumulator or
//     event emission — Go randomises map iteration order per run. The
//     sorted-keys collect idiom, integer accumulation, building another
//     map, and index-addressed writes are recognised as order-insensitive;
//   - bare go statements — scheduling outside the engine scheduler races
//     against deterministic event order.
//
// A finding is silenced with a trailing or preceding
// //detlint:allow <reason> comment; the reason is mandatory.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"earth/internal/analysis/framework"
)

// Analyzer is the detlint pass.
var Analyzer = &framework.Analyzer{
	Name: "detlint",
	Doc: "flag wall-clock reads, global math/rand, order-sensitive map iteration " +
		"and bare goroutines in determinism-critical packages",
	Run: run,
}

// criticalPkgs lists the packages whose outputs must be byte-reproducible:
// the simulated engine and its clock, the fault and network models, and
// everything between an engine and the stats/trace/JSON artifacts. livert
// is excluded by design (it is the wall-clock, really-concurrent engine);
// so are the cmd/ and examples/ drivers, which only shuttle finished
// artifacts around.
var criticalPkgs = map[string]bool{
	"earth/internal/earth":       true,
	"earth/internal/earth/simrt": true,
	"earth/internal/critpath":    true,
	"earth/internal/sim":         true,
	"earth/internal/faults":      true,
	"earth/internal/manna":       true,
	"earth/internal/stats":       true,
	"earth/internal/obs":         true,
	"earth/internal/harness":     true,
	"earth/internal/groebner":    true,
	"earth/internal/poly":        true,
	"earth/internal/eigen":       true,
	"earth/internal/neural":      true,
	"earth/internal/rewrite":     true,
	"earth/internal/search":      true,
}

// Critical reports whether detlint patrols the package. Testdata modules
// (module path earthvet.test) are always in scope so the analyzer can be
// exercised by analysistest-style packages.
func Critical(path string) bool {
	return criticalPkgs[path] || strings.HasPrefix(path, "earthvet.test")
}

func run(pass *framework.Pass) error {
	if !Critical(pass.Path()) {
		return nil
	}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"bare go statement outside the engine scheduler: spawn work through "+
						"the runtime (Spawn/Invoke/Token) or annotate //detlint:allow <reason>")
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock in a determinism-critical package; "+
						"use the engine's virtual clock (Ctx.Now / sim.Time)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if fn.Name() != "New" && fn.Name() != "NewSource" {
				pass.Reportf(call.Pos(),
					"global math/rand.%s is not derived from Config.Seed; "+
						"draw from a seeded *rand.Rand (Ctx.Rand or rand.New)", fn.Name())
			}
		}
	}
}

// checkMapRange flags ranges over maps whose body is not provably
// order-insensitive.
func checkMapRange(pass *framework.Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if why := orderSensitive(pass, rng.Body.List, false); why != "" {
		pass.Reportf(rng.Pos(),
			"map iteration order can reach %s and Go randomises it per run; "+
				"iterate sorted keys (collect, sort, index) or annotate //detlint:allow <reason>", why)
	}
}

// orderSensitive returns "" when every statement is recognised as
// insensitive to the iteration order, else a description of the first
// escape route. insideIf marks statements dominated by a condition, where
// the max/min update idiom (plain assignment) is tolerated.
func orderSensitive(pass *framework.Pass, stmts []ast.Stmt, insideIf bool) string {
	for _, s := range stmts {
		if why := orderSensitiveStmt(pass, s, insideIf); why != "" {
			return why
		}
	}
	return ""
}

func orderSensitiveStmt(pass *framework.Pass, s ast.Stmt, insideIf bool) string {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return orderSensitiveAssign(pass, s, insideIf)
	case *ast.IncDecStmt:
		if isInteger(pass.TypeOf(s.X)) {
			return ""
		}
		return "a non-integer counter"
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return ""
			}
		}
		return "a statement with side effects"
	case *ast.IfStmt:
		if s.Init != nil {
			if why := orderSensitiveStmt(pass, s.Init, true); why != "" {
				return why
			}
		}
		if hasCall(pass.TypesInfo(), s.Cond) {
			return "a function call in a branch condition"
		}
		if why := orderSensitive(pass, s.Body.List, true); why != "" {
			return why
		}
		if s.Else != nil {
			return orderSensitiveStmt(pass, s.Else, true)
		}
		return ""
	case *ast.BlockStmt:
		return orderSensitive(pass, s.List, insideIf)
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return ""
		}
		return "an early exit (the surviving element depends on order)"
	case *ast.ReturnStmt:
		return "an early exit (the surviving element depends on order)"
	case *ast.DeclStmt:
		return ""
	case *ast.RangeStmt:
		if t := pass.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				return "a nested map iteration"
			}
		}
		return orderSensitive(pass, s.Body.List, insideIf)
	case *ast.ForStmt:
		if s.Cond != nil && hasCall(pass.TypesInfo(), s.Cond) {
			return "a function call in a loop condition"
		}
		return orderSensitive(pass, s.Body.List, insideIf)
	default:
		return "a statement the linter cannot prove order-insensitive"
	}
}

func orderSensitiveAssign(pass *framework.Pass, s *ast.AssignStmt, insideIf bool) string {
	switch s.Tok {
	case token.DEFINE:
		// Binding locals from the key/value is pure; their uses are judged
		// where they happen.
		for _, r := range s.Rhs {
			if hasCall(pass.TypesInfo(), r) {
				return "a function call on the right-hand side"
			}
		}
		return ""
	case token.ASSIGN:
		// Collect idiom: s = append(s, ...). The appended values must be
		// call-free: a call could emit output directly from inside the
		// loop, which no later sort can repair.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 &&
					types.ExprString(call.Args[0]) == types.ExprString(s.Lhs[0]) {
					for _, a := range call.Args[1:] {
						if hasCall(pass.TypesInfo(), a) {
							return "a function call on the right-hand side"
						}
					}
					return ""
				}
			}
		}
		for _, l := range s.Lhs {
			switch l.(type) {
			case *ast.IndexExpr:
				// Writing another map or slice entry keyed per element:
				// each key lands in its own slot regardless of order.
			default:
				if !insideIf {
					return "a last-writer-wins assignment"
				}
				// Conditioned plain assignment: the max/min/threshold
				// update idiom, commutative over the elements.
			}
		}
		for _, r := range s.Rhs {
			if hasCall(pass.TypesInfo(), r) {
				return "a function call on the right-hand side"
			}
		}
		return ""
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		for _, l := range s.Lhs {
			t := pass.TypeOf(l)
			if !isInteger(t) {
				if isFloat(t) {
					return "a floating-point accumulator (rounding depends on order)"
				}
				return "a non-commutative accumulator"
			}
		}
		for _, r := range s.Rhs {
			if hasCall(pass.TypesInfo(), r) {
				return "a function call on the right-hand side"
			}
		}
		return ""
	default:
		return "a non-commutative accumulator"
	}
}

// hasCall reports whether expr contains a genuine function call — the
// conservative proxy for "can emit output or mutate". Type conversions
// and the pure builtins (len, cap, min, max) are not calls.
func hasCall(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if tv, ok := info.Types[call.Fun]; ok {
			if tv.IsType() {
				return !found // conversion
			}
			if tv.IsBuiltin() {
				if id, ok := call.Fun.(*ast.Ident); ok {
					switch id.Name {
					case "len", "cap", "min", "max":
						return !found
					}
				}
			}
		}
		found = true
		return false
	})
	return found
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
