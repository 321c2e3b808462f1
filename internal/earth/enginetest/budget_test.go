package enginetest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	"internal/analysis/framelint.checkFrame": {208, "the sync-contract checks (a)-(e) over one frame's facts share its degraded-index flags; a split wants a checks type first"},
	"internal/critpath.walk":                 {124, "one backward walk whose edge cases (dispatch, message, steal, recovery hops) share the cursor state"},
	"internal/critpath.buildIndex":           {116, "one counting pass and one fill pass over the stream, kept together so the table sizes stay exact"},
	"internal/analysis/framework.BottomUp":   {111, "Tarjan's SCC order over the call graph, one algorithm"},
	"internal/analysis/framelint.analyze":    {102, "the per-function walk that collects frame facts, one ast.Inspect switch"},
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

// TestFuzzSmokeListComplete: CI's fuzz smoke runs every fuzz target in the
// tree, and every entry of its list ("./dir FuzzTarget", one a line) names
// one.
func TestFuzzSmokeListComplete(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(repoRoot, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*(\./\S+)\s+(Fuzz\w+)`).FindAllSubmatch(ci, -1) {
		listed[string(m[1])+" "+string(m[2])] = true
	}
	target := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	goFiles(t, func(dir, path string) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range target.FindAllSubmatch(src, -1) {
			key := "./" + dir + " " + string(m[1])
			if !listed[key] {
				t.Errorf("fuzz target %q is missing from ci.yml's fuzz smoke", key)
			}
			delete(listed, key)
		}
	})
	for e := range listed {
		t.Errorf("ci.yml's fuzz smoke lists %q, which is no fuzz target", e)
	}
}
