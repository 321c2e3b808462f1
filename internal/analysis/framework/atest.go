package framework

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// RunTest loads the self-contained module under testdata (it must carry
// its own go.mod so the parent module's `./...` never sees it) and checks
// the analyzer's diagnostics against `// want` comments, the analysistest
// convention:
//
//	for k := range m { // want `iteration over map`
//
// Each trailing `// want` comment holds one or more quoted regexps
// ("..." or backtick-quoted); every diagnostic on that line must match
// one of them, and every regexp must be matched by some diagnostic on the
// line. Lines without a want comment must produce no diagnostics.
//
//unref:allow test driver: every analyzer's testdata runs through it
func RunTest(t *testing.T, testdata string, a *Analyzer, patterns ...string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(testdata, "go.mod")); err != nil {
		t.Fatalf("testdata module %s must have its own go.mod: %v", testdata, err)
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, testdata, patterns...)
	if err != nil {
		t.Fatalf("loading %s: %v", testdata, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", testdata)
	}
	diags, err := RunAnalyzers(fset, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				idx := strings.Index(line, "// want ")
				if idx < 0 {
					continue
				}
				res, err := parseWant(line[idx+len("// want "):])
				if err != nil {
					t.Fatalf("%s:%d: %v", name, i+1, err)
				}
				wants[key{name, i + 1}] = res
			}
		}
	}

	matched := map[key][]bool{}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		res := wants[k]
		if len(matched[k]) == 0 {
			matched[k] = make([]bool, len(res))
		}
		ok := false
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if len(matched[k]) <= i || !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// ScopeResolves checks a linter's patrol scope, a set of import paths of
// module earth: every path must name a directory of the module that holds
// a non-test Go file, so a deleted or renamed package fails a test
// instead of silently dropping out of patrol. It must be called from a
// test of a package inside the module.
//
//unref:allow test driver: detlint's TestScopeResolves calls it
func ScopeResolves(t *testing.T, scope map[string]bool) {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		if root == filepath.Dir(root) {
			t.Fatal("no go.mod above the test's directory")
		}
		root = filepath.Dir(root)
	}
	for path := range scope {
		rel, inModule := strings.CutPrefix(path, "earth/")
		dir := filepath.Join(root, rel)
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		files = slices.DeleteFunc(files, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
		if !inModule || len(files) == 0 {
			t.Errorf("scope entry %q: no Go package at %s", path, dir)
		}
	}
}

// parseWant extracts the quoted regexps from the tail of a want comment.
func parseWant(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var raw string
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern %q", s)
			}
			var err error
			raw, err = strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %q: %v", s[:end+1], err)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.Index(s[1:], "`")
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern %q", s)
			}
			raw = s[1 : end+1]
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("want patterns must be quoted, got %q", s)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", raw, err)
		}
		out = append(out, re)
	}
	return out, nil
}
