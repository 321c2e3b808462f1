// Package framework is a deliberately small, dependency-free stand-in for
// golang.org/x/tools/go/analysis: just enough of the Analyzer/Pass/
// Diagnostic surface for the repo's own vet passes (detlint, locklint,
// framelint) plus an analysistest-style "// want" test runner.
//
// The build environment for this repo is offline — no module proxy — so
// x/tools cannot be a dependency; everything here is built on the standard
// library's go/parser, go/types and the `go list -export` pipeline (export
// data comes from the build cache, so loading works without network). The
// API shapes mirror x/tools so the analyzers can be ported to real
// go/analysis with mechanical edits if the dependency ever becomes
// available.
package framework

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and is the prefix of its
	// suppression directive: //Name:allow <reason>.
	Name string
	// Doc is a one-paragraph description shown by `earthvet help`.
	Doc string
	// Run analyses one package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding at a source position. Analyzer is stamped by
// RunAnalyzers with the name of the pass that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through an analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags      *[]Diagnostic
	directives map[string][]directive // file name -> allow directives for this analyzer
}

// Files returns the package's parsed syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.PkgPath }

// TypesInfo returns the package's type-checking results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.TypesInfo }

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.TypesInfo.TypeOf(e) }

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.TypesInfo.ObjectOf(id)
}

// IntConst returns the constant integer value of e, if it has one.
func (p *Pass) IntConst(e ast.Expr) (int64, bool) {
	tv, ok := p.Pkg.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// MethodCallOn reports whether call is recv.name(...) with recv's named
// type (through one pointer) called typeName. The analyzers key on type
// and method names, not import paths, so their checks survive package
// moves and run on self-contained testdata modules.
func (p *Pass) MethodCallOn(call *ast.CallExpr, typeName, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	n := NamedOf(p.TypeOf(sel.X))
	return n != nil && n.Obj().Name() == typeName
}

// NamedOf returns t's named type through one pointer, or nil.
func NamedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// Reportf records a diagnostic at pos unless a //name:allow directive
// covers that line (same line, or a directive standing on the line above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allowedAt(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined diagnostics sorted by position. Directive hygiene is enforced
// here: an allow directive with an empty reason is itself a diagnostic.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:   a,
				Fset:       fset,
				Pkg:        pkg,
				diags:      &diags,
				directives: collectDirectives(fset, pkg, a.Name),
			}
			for _, d := range pass.badDirectives() {
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
