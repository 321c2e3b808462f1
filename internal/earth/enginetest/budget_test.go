package enginetest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// maxEngineFuncLines is the longest function either engine, either
// command in front of them, or any of the five applications on top may
// contain, measured from the func keyword to the closing brace. The
// protocol the engines implement is small, a command is a handful of
// named steps, and an application is a set of named protocol phases; a
// function outgrowing this budget is a decision that wants its own name
// (see DESIGN.md, "Who owns which decision").
const maxEngineFuncLines = 100

// TestEngineFunctionBudget pins the engines', the commands' and the
// applications' shape: no function in simrt, livert, cmd/earthsim,
// cmd/paperfigs, eigen, groebner, neural, rewrite or search (tests
// excluded) exceeds maxEngineFuncLines.
func TestEngineFunctionBudget(t *testing.T) {
	for _, pkg := range []string{
		"../simrt", "../livert", "../../../cmd/earthsim", "../../../cmd/paperfigs",
		"../../eigen", "../../groebner", "../../neural", "../../rewrite", "../../search",
	} {
		files, err := filepath.Glob(filepath.Join(pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources found (err=%v)", pkg, err)
		}
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
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
				if lines > maxEngineFuncLines {
					t.Errorf("%s: func %s is %d lines, budget %d",
						fset.Position(fn.Pos()), fn.Name.Name, lines, maxEngineFuncLines)
				}
			}
		}
	}
}
