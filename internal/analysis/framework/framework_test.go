package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// helperSrc exercises the type helpers the analyzers share: a named
// type with value and pointer methods, a same-named method on another
// type, and constants of several kinds.
const helperSrc = `package p

type Frame struct{}

func (Frame) Value()          {}
func (*Frame) InitSync(a int) {}

type Ctx struct{}

func (Ctx) InitSync(a int) {}

func InitSync(a int) {}

const (
	three     = 3
	minusTwo  = -2
	half      = 0.5
	name      = "x"
)

var v = 7

func use(f Frame, pf *Frame, ppf **Frame, c Ctx, fs []Frame) {
	pf.InitSync(three)
	f.InitSync(minusTwo)
	c.InitSync(three * 2)
	InitSync(v)
	f.Value()
	_ = half
	_ = name
	_, _ = ppf, fs
}
`

// checkHelperSrc type-checks helperSrc and returns a Pass over it plus
// the calls and parameters of use, in source order.
func checkHelperSrc(t *testing.T) (*Pass, []*ast.CallExpr, []*ast.Ident) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", helperSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Pkg: &Package{PkgPath: "p", Files: []*ast.File{f}, Types: tp, TypesInfo: info}}
	var calls []*ast.CallExpr
	var params []*ast.Ident
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "use" {
			continue
		}
		for _, fld := range fd.Type.Params.List {
			params = append(params, fld.Names...)
		}
		for _, s := range fd.Body.List {
			if es, ok := s.(*ast.ExprStmt); ok {
				calls = append(calls, es.X.(*ast.CallExpr))
			}
		}
	}
	return pass, calls, params
}

func TestNamedOf(t *testing.T) {
	pass, _, params := checkHelperSrc(t)
	want := map[string]string{"f": "Frame", "pf": "Frame", "ppf": "", "c": "Ctx", "fs": ""}
	for _, id := range params {
		got := ""
		if n := NamedOf(pass.ObjectOf(id).Type()); n != nil {
			got = n.Obj().Name()
		}
		if got != want[id.Name] {
			t.Errorf("NamedOf(type of %s) = %q, want %q", id.Name, got, want[id.Name])
		}
	}
	if n := NamedOf(types.Typ[types.Int]); n != nil {
		t.Errorf("NamedOf(int) = %v, want nil", n)
	}
}

func TestIntConst(t *testing.T) {
	pass, calls, _ := checkHelperSrc(t)
	cases := []struct {
		arg  ast.Expr
		want int64
		ok   bool
	}{
		{calls[0].Args[0], 3, true},  // named constant
		{calls[1].Args[0], -2, true}, // negative constant
		{calls[2].Args[0], 6, true},  // constant expression
		{calls[3].Args[0], 0, false}, // variable
	}
	for i, tc := range cases {
		got, ok := pass.IntConst(tc.arg)
		if got != tc.want || ok != tc.ok {
			t.Errorf("case %d: IntConst = %d, %v; want %d, %v", i, got, ok, tc.want, tc.ok)
		}
	}
	refused := 0
	for e, tv := range pass.TypesInfo().Types {
		if id, ok := e.(*ast.Ident); ok && (id.Name == "half" || id.Name == "name") && tv.Value != nil {
			if c, ok := pass.IntConst(e); ok {
				t.Errorf("IntConst(%s) = %d, true; want a non-integer constant refused", id.Name, c)
			}
			refused++
		}
	}
	if refused != 2 {
		t.Errorf("found %d uses of the float and string constants, want 2", refused)
	}
}

func TestMethodCallOn(t *testing.T) {
	pass, calls, _ := checkHelperSrc(t)
	cases := []struct {
		call           int
		typeName, name string
		want           bool
	}{
		{0, "Frame", "InitSync", true},  // through a pointer
		{1, "Frame", "InitSync", true},  // on a value
		{2, "Frame", "InitSync", false}, // same method name, other type
		{2, "Ctx", "InitSync", true},
		{3, "Frame", "InitSync", false}, // a function, not a method
		{4, "Frame", "InitSync", false}, // other method of the type
		{4, "Frame", "Value", true},
	}
	for _, tc := range cases {
		if got := pass.MethodCallOn(calls[tc.call], tc.typeName, tc.name); got != tc.want {
			t.Errorf("call %d: MethodCallOn(%s, %s) = %v, want %v", tc.call, tc.typeName, tc.name, got, tc.want)
		}
	}
}
