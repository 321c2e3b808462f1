package enginetest

import (
	"earth/internal/analysis/framework"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the module root, seen from this package.
const repoRoot = "../../.."

// maxFuncLines is the longest function any non-test package may contain,
// measured from the func keyword to the closing brace. The protocol the
// engines implement is small, a command is a handful of named steps, and an
// application is a set of named protocol phases; a function outgrowing this
// budget is a decision that wants its own name (see DESIGN.md, "Who owns
// which decision").
const maxFuncLines = 100

// overBudget is the ratchet: the functions over the budget when it came to
// cover the whole tree, each with its length then and why it was left
// whole. It only shrinks — the test fails when an entry grows, when it
// fits the budget (delete the entry) and when it is gone.
var overBudget = map[string]struct {
	lines  int
	reason string
}{
	"internal/critpath.walk":               {124, "one backward walk whose edge cases (dispatch, message, steal, recovery hops) share the cursor state"},
	"internal/critpath.buildIndex":         {116, "one counting pass and one fill pass over the stream, kept together so the table sizes stay exact"},
	"internal/analysis/framework.BottomUp": {111, "Tarjan's SCC order over the call graph, one algorithm"},
}

// goFiles calls fn for every Go file of the module outside bench/ and
// testdata, with its directory relative to the root.
func goFiles(t *testing.T, fn func(dir, path string)) {
	t.Helper()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repoRoot, path)
		if d.IsDir() {
			if rel == "bench" || d.Name() == "testdata" || rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			fn(filepath.ToSlash(filepath.Dir(rel)), path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineFunctionBudget: no function of a non-test package outside
// bench/ exceeds maxFuncLines, except the ratchet's, which never grow.
func TestEngineFunctionBudget(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	goFiles(t, func(dir, path string) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			key := dir + "." + fn.Name.Name
			if ex, ok := overBudget[key]; ok {
				seen[key] = true
				if lines <= maxFuncLines || lines > ex.lines {
					t.Errorf("%s: func %s is %d lines, listed at %d over a budget of %d: update the ratchet",
						fset.Position(fn.Pos()), key, lines, ex.lines, maxFuncLines)
				}
				continue
			}
			if lines > maxFuncLines {
				t.Errorf("%s: func %s is %d lines, budget %d", fset.Position(fn.Pos()), key, lines, maxFuncLines)
			}
		}
	})
	for key := range overBudget {
		if !seen[key] {
			t.Errorf("ratchet entry %s names no function: delete it", key)
		}
	}
}

// readCI returns ci.yml.
func readCI(t *testing.T) []byte {
	t.Helper()
	ci, err := os.ReadFile(filepath.Join(repoRoot, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	return ci
}

// testFuncs maps each directory to the Test and Fuzz functions its test
// files declare.
func testFuncs(t *testing.T) map[string][]string {
	funcs := map[string][]string{}
	target := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	goFiles(t, func(dir, path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range target.FindAllSubmatch(src, -1) {
			funcs[dir] = append(funcs[dir], string(m[1]))
		}
	})
	return funcs
}

// TestFuzzSmokeListComplete: CI's fuzz smoke runs every fuzz target in the
// tree, and every entry of its list ("./dir FuzzTarget", one a line) names
// one.
func TestFuzzSmokeListComplete(t *testing.T) {
	ci := readCI(t)
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*(\./\S+)\s+(Fuzz\w+)`).FindAllSubmatch(ci, -1) {
		listed[string(m[1])+" "+string(m[2])] = true
	}
	for dir, names := range testFuncs(t) {
		for _, name := range names {
			if !strings.HasPrefix(name, "Fuzz") {
				continue
			}
			key := "./" + dir + " " + name
			if !listed[key] {
				t.Errorf("fuzz target %q is missing from ci.yml's fuzz smoke", key)
			}
			delete(listed, key)
		}
	}
	for e := range listed {
		t.Errorf("ci.yml's fuzz smoke lists %q, which is no fuzz target", e)
	}
}

// TestCIRunPatternsMatch: every top-level alternative of every -run pattern
// in ci.yml (bar '^$', which runs nothing on purpose) matches a Test or Fuzz
// function of the packages its step names, up to the alternative's first
// '/'. A race or soak step whose pattern matches nothing passes without
// running anything.
func TestCIRunPatternsMatch(t *testing.T) {
	funcs := testFuncs(t)
	steps := regexp.MustCompile(`go test\b[^\n]*?-run '([^']*)'([^\n]*)`).FindAllSubmatch(readCI(t), -1)
	if len(steps) == 0 {
		t.Fatal("ci.yml has no go test -run step")
	}
	for _, m := range steps {
		pattern := string(m[1])
		if pattern == "^$" {
			continue
		}
		var names []string
		for _, arg := range strings.Fields(string(m[2])) {
			if pkg, ok := strings.CutPrefix(arg, "./"); ok {
				pkg = strings.TrimSuffix(pkg, "/")
				base, tree := strings.CutSuffix(pkg, "/...")
				for dir, fs := range funcs {
					if dir == base || tree && strings.HasPrefix(dir, base+"/") {
						names = append(names, fs...)
					}
				}
			}
		}
		if len(names) == 0 {
			t.Errorf("-run '%s': its step names no package with tests", pattern)
		}
		for _, alt := range topLevel(pattern, '|') {
			first := topLevel(alt, '/')[0]
			re, err := regexp.Compile(first)
			if err != nil {
				t.Errorf("-run '%s': %v", pattern, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("-run '%s': alternative %q matches no Test or Fuzz function of its packages", pattern, alt)
			}
		}
	}
}

// topLevel splits a regexp at each sep outside parentheses and brackets.
func topLevel(re string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}

// TestTopLevel: the split TestCIRunPatternsMatch relies on cuts only at
// separators outside groups, classes and escapes.
func TestTopLevel(t *testing.T) {
	for _, tc := range []struct {
		name, re string
		sep      byte
		want     []string
	}{
		{"single", "^TestX$", '|', []string{"^TestX$"}},
		{"alternatives", "TestA|TestB|TestC", '|', []string{"TestA", "TestB", "TestC"}},
		{"group", "Test(A|B)|TestC", '|', []string{"Test(A|B)", "TestC"}},
		{"class", "Test[|/]x|TestY", '|', []string{"Test[|/]x", "TestY"}},
		{"escape", `TestA\|B|TestC`, '|', []string{`TestA\|B`, "TestC"}},
		{"subtest", "TestX/(a|b)/c", '/', []string{"TestX", "(a|b)", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := topLevel(tc.re, tc.sep); !slices.Equal(got, tc.want) {
				t.Errorf("topLevel(%q, %q) = %q, want %q", tc.re, tc.sep, got, tc.want)
			}
		})
	}
}

// stdIfaces are the interfaces the standard library calls methods through
// by reflection or formatting, as method signatures (see methodKey).
var stdIfaces = [][]string{
	{"Error() (string)"},
	{"String() (string)"},
	{"MarshalJSON() ([]byte, error)"},
	{"UnmarshalJSON([]byte) (error)"},
	{"MarshalText() ([]byte, error)"},
	{"UnmarshalText([]byte) (error)"},
}

// TestNoUnreferencedExports: every exported func, method, type, const, var
// and struct field of a package under internal/ is used by some non-test
// code of the module — cmd/, examples/ and bench/ included, its own package
// too — or carries an //unref:allow directive with a reason (a test
// oracle), on its line or the line before. A method is also used when its
// type's method set covers an interface that has it: one the program
// mentions, or one of stdIfaces. Packages only tests import (internal/pin,
// this one) are test support and are not checked. A directive that covers
// no unused name fails too.
func TestNoUnreferencedExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := framework.Load(fset, repoRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	u := uses{used: map[string]bool{}, ifaces: stdIfaces}
	imported := map[string]bool{}
	for _, p := range pkgs {
		u.collect(p)
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	testImported := map[string]bool{}
	goFiles(t, func(dir, path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range f.Imports {
			if p, _ := strconv.Unquote(s.Path.Value); p != "earth/"+dir {
				testImported[p] = true
			}
		}
	})
	for _, p := range pkgs {
		if !strings.HasPrefix(p.PkgPath, "earth/internal/") {
			continue
		}
		if !imported[p.PkgPath] {
			if !testImported[p.PkgPath] {
				t.Errorf("package %s is imported by nothing", p.PkgPath)
			}
			continue // test support
		}
		allow := allowDirectives(t, fset, p)
		for _, d := range u.defs(p) {
			if u.used[d.key] {
				continue
			}
			pos := fset.Position(d.obj.Pos())
			if a := allow[pos.Filename][pos.Line]; a != nil {
				a.used = true
				continue
			}
			t.Errorf("%s: %s is used by no non-test code: delete it, move it into the tests that use it, or give it an //unref:allow <reason>", pos, d.key)
		}
		for _, lines := range allow {
			for line, a := range lines {
				if line == a.pos.Line && !a.used {
					t.Errorf("%s: //unref:allow covers no unused name: delete it", a.pos)
				}
			}
		}
	}
}

// allowDir is one //unref:allow directive.
type allowDir struct {
	pos  token.Position
	used bool // it covers a name nothing else uses
}

// allowDirectives maps the lines each //unref:allow directive of p covers
// — its own and the next — to it, by file. A directive without a reason
// fails the test.
func allowDirectives(t *testing.T, fset *token.FileSet, p *framework.Package) map[string]map[int]*allowDir {
	out := map[string]map[int]*allowDir{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "unref:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					t.Errorf("%s: //unref:allow needs a reason", pos)
					continue
				}
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]*allowDir{}
				}
				a := &allowDir{pos: pos}
				out[pos.Filename][pos.Line] = a
				out[pos.Filename][pos.Line+1] = a
			}
		}
	}
	return out
}

// uses is the set of names the loaded code uses, keyed by package path,
// owner type and name: objects read from export data are not the objects
// type-checked from source, so identity cannot key them.
type uses struct {
	used   map[string]bool
	ifaces [][]string // method keys of every interface mentioned
}

// objKey keys a package-level object, a method or a field of a named type.
func objKey(obj types.Object, owner types.Type) string {
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	if n := namedOf(owner); n != nil {
		return path + "." + n.Obj().Name() + "." + obj.Name()
	}
	return path + "." + obj.Name()
}

// funcKey keys a function or method.
func funcKey(f *types.Func) string {
	f = f.Origin()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return objKey(f, recv.Type())
	}
	return objKey(f, nil)
}

// namedOf is t's named type, through one pointer, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// methodKey is a method's name and signature, written the same way in
// every package's type universe.
func methodKey(name string, sig *types.Signature) string {
	var b strings.Builder
	b.WriteString(name)
	for i, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString("(")
		for j := 0; j < tup.Len(); j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.TypeString(tup.At(j).Type(), nil))
		}
		b.WriteString(")")
	}
	return b.String()
}

// useField marks field number i of the struct behind t, through one
// pointer, used — when a named type declares it — and returns its type.
func (u *uses) useField(t types.Type, i int) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	f := st.Field(i)
	if namedOf(t) != nil {
		u.used[objKey(f, t)] = true
	}
	return f.Type()
}

// addIface records t's methods if t is an interface with any. A generic
// interface not instantiated here records names only: any instance
// matches.
func (u *uses) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	n, _ := t.(*types.Named)
	generic := n != nil && n.TypeParams().Len() > 0 && n.TypeArgs().Len() == 0
	var ms []string
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if generic {
			ms = append(ms, m.Name())
		} else {
			ms = append(ms, methodKey(m.Name(), m.Type().(*types.Signature)))
		}
	}
	u.ifaces = append(u.ifaces, ms)
}

// collect records every use in p.
func (u *uses) collect(p *framework.Package) {
	info := p.TypesInfo
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			u.used[funcKey(o)] = true
		case *types.Var:
			if !o.IsField() { // fields: by owner, below
				u.used[objKey(o, nil)] = true
			}
		case *types.TypeName:
			u.used[objKey(o, nil)] = true
			u.addIface(o.Type())
		default:
			u.used[objKey(obj, nil)] = true
		}
	}
	for _, sel := range info.Selections {
		t := sel.Recv()
		path := sel.Index()
		if sel.Kind() != types.FieldVal {
			path = path[:len(path)-1]
		}
		for _, i := range path {
			if t = u.useField(t, i); t == nil {
				break
			}
		}
	}
	for _, tv := range info.Types {
		u.addIface(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tup.Len(); i++ {
					u.addIface(tup.At(i).Type())
				}
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			// Keyed fields, or every field of an unkeyed literal.
			t := info.Types[lit].Type
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i := 0; i < st.NumFields(); i++ {
				for _, e := range lit.Elts {
					kv, ok := e.(*ast.KeyValueExpr)
					if !ok || kv.Key.(*ast.Ident).Name == st.Field(i).Name() {
						u.useField(t, i)
						break
					}
				}
			}
			return true
		})
	}
}

// def is one exported name a package declares.
type def struct {
	key string
	obj types.Object
}

// defs lists p's exported declarations, and marks the methods p's types
// provide to an interface used.
func (u *uses) defs(p *framework.Package) []def {
	var out []def
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, def{objKey(obj, nil), obj})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n := tn.Type().(*types.Named)
		u.implemented(n)
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); m.Exported() {
				out = append(out, def{objKey(m, n), m})
			}
		}
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					out = append(out, def{objKey(f, n), f})
				}
			}
		}
	}
	return out
}

// implemented marks each method of n that serves an interface n's method
// set covers.
func (u *uses) implemented(n *types.Named) {
	ms := types.NewMethodSet(types.NewPointer(n))
	have := map[string]*types.Selection{}
	for i := 0; i < ms.Len(); i++ {
		s := ms.At(i)
		have[methodKey(s.Obj().Name(), s.Type().(*types.Signature))] = s
		have[s.Obj().Name()] = s
	}
next:
	for _, it := range u.ifaces {
		for _, m := range it {
			if have[m] == nil {
				continue next
			}
		}
		for _, m := range it {
			u.used[funcKey(have[m].Obj().(*types.Func))] = true
		}
	}
}

// unrefFixture is a two-package program for TestUnreferencedExportRules:
// lib declares names and app, a client, uses some of them.
var unrefFixture = [][2]string{
	{"fix/lib", `package lib

type Shape interface{ Area() float64 }

type Square struct {
	Side, Unset float64
	Label       string
}

func (s Square) Area() float64      { return s.Side * s.Side }
func (s Square) String() string     { return "square" }
func (s Square) Perimeter() float64 { return 4 * s.Side }

func New(side float64) *Square { return &Square{Side: side} }
func Spare()                   {}
func local() int               { return Inner }

var Inner = 2

const Max = 3
`},
	{"fix/app", `package app

import "fix/lib"

func Total(ss ...lib.Shape) (t float64) {
	for _, s := range ss {
		t += s.Area()
	}
	return t
}

var _ = Total(lib.New(1), lib.Square{Label: "x"})
`},
}

// fixtureImporter resolves the fixture's own packages.
type fixtureImporter map[string]*types.Package

func (m fixtureImporter) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("fixture has no package %q", path)
}

// TestUnreferencedExportRules runs TestNoUnreferencedExports's rules on
// unrefFixture: each exported name of lib is reported, or not, by the rule
// its case names.
func TestUnreferencedExportRules(t *testing.T) {
	fset := token.NewFileSet()
	imp := fixtureImporter{}
	var pkgs []*framework.Package
	for _, src := range unrefFixture {
		f, err := parser.ParseFile(fset, src[0]+".go", src[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(src[0], fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		imp[src[0]] = tp
		pkgs = append(pkgs, &framework.Package{PkgPath: src[0], Files: []*ast.File{f}, Types: tp, TypesInfo: info})
	}
	u := uses{used: map[string]bool{}, ifaces: stdIfaces}
	for _, p := range pkgs {
		u.collect(p)
	}
	reported := map[string]bool{}
	for _, d := range u.defs(pkgs[0]) {
		reported[d.key] = !u.used[d.key]
	}
	cases := []struct {
		name, key string
		unused    bool
	}{
		{"func-no-caller", "Spare", true},
		{"const-no-use", "Max", true},
		{"method-no-caller", "Square.Perimeter", true},
		{"field-never-set-or-read", "Square.Unset", true},
		{"func-called-by-client", "New", false},
		{"var-used-in-own-package", "Inner", false},
		{"interface-named-by-client", "Shape", false},
		{"type-in-client-literal", "Square", false},
		{"method-serves-program-interface", "Square.Area", false},
		{"method-serves-std-interface", "Square.String", false},
		{"field-set-by-keyed-literal", "Square.Label", false},
		{"field-read-by-selector", "Square.Side", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := "fix/lib." + tc.key
			got, ok := reported[key]
			if !ok {
				t.Fatalf("%s is not among lib's exported names", key)
			}
			if got != tc.unused {
				t.Errorf("%s: unused = %v, want %v", key, got, tc.unused)
			}
			delete(reported, key)
		})
	}
	for key := range reported {
		t.Errorf("lib's exported name %s has no case", key)
	}
}
