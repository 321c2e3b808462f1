package framelint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"unicode"

	"earth/internal/analysis/framework"
)

// This file holds the checks that need no frame tracking: each looks at
// one call, one composite literal or one constant declaration, anywhere
// in a file, and the event audit joins the last two across packages.

// eventFacts is what one package contributes to the cross-package event
// audit.
type eventFacts struct {
	// defined maps "pkgpath.EvName" to the definition position.
	defined map[string]token.Pos
	// emitted holds "pkgpath.EvName" keys seen used as a kind (see
	// recordEmission).
	emitted map[string]bool
}

// checkAPI runs the per-call and per-literal checks over every file and
// returns the package's event facts for finish.
func checkAPI(pass *framework.Pass) *eventFacts {
	facts := &eventFacts{defined: map[string]token.Pos{}, emitted: map[string]bool{}}
	for _, f := range pass.Files() {
		collectEventConsts(pass, f, facts)
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				checkConstArgs(pass, n)
				checkVectorShapes(pass, n)
				checkTracerEmit(pass, n, stack)
			case *ast.CompositeLit:
				checkNegativeFields(pass, n)
			case *ast.Ident:
				recordEmission(pass, n, stack, facts)
			}
			return true
		})
	}
	return facts
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

// collectEventConsts records every exported Ev*-prefixed constant of a
// named integer type declared in this package.
func collectEventConsts(pass *framework.Pass, f *ast.File, facts *eventFacts) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if !isEventConstName(name.Name) {
					continue
				}
				obj, ok := pass.ObjectOf(name).(*types.Const)
				if !ok {
					continue
				}
				if _, named := obj.Type().(*types.Named); !named {
					continue
				}
				facts.defined[constKey(obj)] = name.Pos()
			}
		}
	}
}

func isEventConstName(s string) bool {
	return len(s) > 2 && strings.HasPrefix(s, "Ev") && unicode.IsUpper(rune(s[2]))
}

func constKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recordEmission marks an Ev* constant used as a kind — the Kind of an
// Event literal, or a value handed to a parameter, a variable or a result
// on its way to one (earth.NodeAcct.Issue, earth.ThreadDeliver) — as
// emitted. Comparisons, switch cases, indices and keys only read a kind
// and do not count. stack ends with id.
func recordEmission(pass *framework.Pass, id *ast.Ident, stack []ast.Node, facts *eventFacts) {
	c, ok := pass.TypesInfo().Uses[id].(*types.Const)
	if !ok || !isEventConstName(c.Name()) {
		return
	}
	var e ast.Expr = id
	parent := stack[len(stack)-2]
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.Sel == id {
		e, parent = sel, stack[len(stack)-3]
	}
	switch p := parent.(type) {
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ || p.Op == token.LSS ||
			p.Op == token.LEQ || p.Op == token.GTR || p.Op == token.GEQ {
			return
		}
	case *ast.CaseClause:
		return
	case *ast.IndexExpr:
		if p.Index == e {
			return
		}
	case *ast.KeyValueExpr:
		if p.Key == e {
			return
		}
	}
	facts.emitted[constKey(c)] = true
}

// checkTracerEmit requires a nil guard around emissions through a struct
// field of interface type Tracer (the engines' cached `tr` field, nil for
// untraced runs). Locals and parameters are exempt: their flow is assumed
// to have been checked at assignment (obs.Multi fans out over a slice of
// tracers it filtered itself).
func checkTracerEmit(pass *framework.Pass, call *ast.CallExpr, stack []ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Event" || len(call.Args) != 1 {
		return
	}
	recv := sel.X
	if _, ok := recv.(*ast.SelectorExpr); !ok {
		return // only field accesses are checked
	}
	t := pass.TypeOf(recv)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Tracer" {
		return
	}
	if _, ok := named.Underlying().(*types.Interface); !ok {
		return
	}
	want := types.ExprString(recv)
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condChecksNonNil(ifs.Cond, want) {
			return
		}
	}
	pass.Reportf(call.Pos(),
		"%s.Event emission without a nil-tracer guard; wrap in `if %s != nil { ... }` "+
			"(untraced runs keep the field nil)", want, want)
}

// condChecksNonNil reports whether cond (possibly a && chain) contains
// `want != nil`.
func condChecksNonNil(cond ast.Expr, want string) bool {
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condChecksNonNil(c.X, want) || condChecksNonNil(c.Y, want)
		}
		if c.Op != token.NEQ {
			return false
		}
		x, y := types.ExprString(c.X), types.ExprString(c.Y)
		return (x == want && y == "nil") || (y == want && x == "nil")
	case *ast.ParenExpr:
		return condChecksNonNil(c.X, want)
	}
	return false
}

// finish runs the cross-package audit: every defined Ev* constant must be
// emitted somewhere in the analysed package set. The check is skipped when
// no emissions were seen at all — that means the emitting engines were not
// part of this run (a single-package invocation), and reporting would be
// noise.
func finish(results []framework.Result, report func(framework.Diagnostic)) {
	defined := map[string]token.Pos{}
	emitted := map[string]bool{}
	for _, r := range results {
		facts := r.Value.(*eventFacts)
		for k, pos := range facts.defined {
			defined[k] = pos
		}
		for k := range facts.emitted {
			emitted[k] = true
		}
	}
	if len(emitted) == 0 {
		return
	}
	keys := make([]string, 0, len(defined))
	for k := range defined {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !emitted[k] {
			report(framework.Diagnostic{
				Pos: defined[k],
				Message: fmt.Sprintf("trace-event constant %s is defined but never emitted "+
					"(no Event's Kind, and no kind handed on toward one, in the analysed packages); "+
					"emit it or delete it", k[strings.LastIndex(k, ".")+1:]),
			})
		}
	}
}
