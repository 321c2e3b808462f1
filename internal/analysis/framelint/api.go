package framelint

import (
	"go/ast"
	"go/constant"

	"earth/internal/analysis/framework"
)

// This file holds the checks that need no frame tracking: each looks at
// one call or one composite literal, anywhere in a file.

// checkAPI runs the per-call and per-literal checks over every file.
func checkAPI(pass *framework.Pass) {
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkConstArgs(pass, n)
				checkVectorShapes(pass, n)
			case *ast.CompositeLit:
				checkNegativeFields(pass, n)
			}
			return true
		})
	}
}

// checkConstArgs reports InitSync and NewFrame calls with constant
// arguments the runtime rejects: they panic at run time, so the failure
// moves to vet time.
func checkConstArgs(pass *framework.Pass, call *ast.CallExpr) {
	if pass.MethodCallOn(call, "Frame", "InitSync") && len(call.Args) == 4 {
		if c, ok := pass.IntConst(call.Args[1]); ok && c < 1 {
			pass.Reportf(call.Pos(),
				"InitSync with count %d: a sync slot needs count >= 1 (a slot that starts enabled is a Spawn)", c)
		}
		if r, ok := pass.IntConst(call.Args[2]); ok && r < 0 {
			pass.Reportf(call.Pos(), "InitSync with negative reset %d", r)
		}
		if th, ok := pass.IntConst(call.Args[3]); ok && th < 0 {
			pass.Reportf(call.Pos(), "InitSync names negative thread %d", th)
		}
		return
	}
	if isNewFrameCall(pass, call) {
		// Args[0], the home node, is engine-assigned: any value goes.
		for i, what := range []string{"thread count", "slot count"} {
			if c, ok := pass.IntConst(call.Args[i+1]); ok && c < 0 {
				pass.Reportf(call.Pos(), "NewFrame with negative %s %d", what, c)
			}
		}
	}
}

// checkVectorShapes is check (d): a BlkMovBytesV(c, owner, sizes, writes,
// f, slot) whose sizes and writes are literals of different lengths.
func checkVectorShapes(pass *framework.Pass, call *ast.CallExpr) {
	if name, _ := callName(call); name != "BlkMovBytesV" || len(call.Args) < 4 {
		return
	}
	ls, okS := litLen(call.Args[2])
	lw, okW := litLen(call.Args[3])
	if okS && okW && ls != lw {
		pass.Reportf(call.Pos(),
			"BlkMovBytesV with %d sizes but %d writes; the vectored blocks must pair up one-to-one "+
				"(the runtime panics before any transfer)", ls, lw)
	}
}

// litLen returns the element count of a slice composite literal.
func litLen(e ast.Expr) (int, bool) {
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return 0, false
	}
	return len(lit.Elts), true
}

// checkNegativeFields flags negative numeric constants in RetryPolicy and
// Config composite literals. Seed fields are exempt: a negative seed is a
// legitimate stream selector.
func checkNegativeFields(pass *framework.Pass, lit *ast.CompositeLit) {
	n := framework.NamedOf(pass.TypeOf(lit))
	if n == nil {
		return
	}
	name := n.Obj().Name()
	if name != "RetryPolicy" && name != "Config" {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name == "Seed" {
			continue
		}
		tv, ok := pass.TypesInfo().Types[kv.Value]
		if !ok || tv.Value == nil {
			continue
		}
		if v := tv.Value; (v.Kind() == constant.Int || v.Kind() == constant.Float) &&
			constant.Sign(v) < 0 {
			pass.Reportf(kv.Pos(),
				"%s.%s given negative constant %s; the runtime treats it as invalid "+
					"(zero selects the documented default)", name, key.Name, v.ExactString())
		}
	}
}
