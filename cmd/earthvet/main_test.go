package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"earth/internal/analysis/framework"
)

// TestEarthvetRepoClean is the CI acceptance check in test form: loading
// and analysing every package in the module must produce zero findings.
// If this fails, either a real defect crept in (fix it) or a deliberate
// pattern needs a //<analyzer>:allow <reason> annotation.
func TestEarthvetRepoClean(t *testing.T) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		t.Fatal("not running inside a module")
	}
	root := filepath.Dir(gomod)

	fset := token.NewFileSet()
	pkgs, err := framework.Load(fset, root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("Load returned %d packages; expected the whole module", len(pkgs))
	}

	diags, err := framework.RunAnalyzers(fset, pkgs, analyzers)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestAnalyzerRegistry pins the driver's analyzer set: all three domain
// analyzers registered, distinct names, documented.
func TestAnalyzerRegistry(t *testing.T) {
	want := map[string]bool{"detlint": true, "locklint": true, "framelint": true}
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("analyzer %q not registered", name)
		}
	}
}

// fakeDiags builds a fileset with one synthetic file under dir and a
// second outside it (whose path must stay absolute after relativizing),
// plus diagnostics inside each.
func fakeDiags(t *testing.T, dir string) (*token.FileSet, []framework.Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	in := fset.AddFile(filepath.Join(dir, "pkg", "a.go"), -1, 100)
	in.SetLinesForContent(bytes.Repeat([]byte("x\n"), 50))
	out := fset.AddFile(filepath.Join(filepath.Dir(dir), "elsewhere", "b.go"), -1, 100)
	out.SetLinesForContent(bytes.Repeat([]byte("x\n"), 50))
	return fset, []framework.Diagnostic{
		{Analyzer: "framelint", Pos: in.Pos(4), Message: "signal targets slot 3 of frame f, but it has only 1 slot(s)"},
		{Analyzer: "detlint", Pos: in.Pos(20), Message: "map iteration order leaks"},
		{Analyzer: "locklint", Pos: out.Pos(2), Message: "blocking call under held mutex"},
	}
}

// TestRenderJSON checks the -json wire format: an array of
// {file, line, col, analyzer, message} with cwd-relative paths for files
// under the working directory and absolute paths for those outside it.
func TestRenderJSON(t *testing.T) {
	dir := t.TempDir()
	fset, diags := fakeDiags(t, dir)

	var buf bytes.Buffer
	if err := render(&buf, fset, dir, diags, true); err != nil {
		t.Fatal(err)
	}
	var got []jsonFinding
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	wantFiles := []string{
		filepath.Join("pkg", "a.go"),
		filepath.Join("pkg", "a.go"),
		filepath.Join(filepath.Dir(dir), "elsewhere", "b.go"),
	}
	want := make([]jsonFinding, len(diags))
	for i, d := range diags {
		pos := fset.Position(d.Pos)
		want[i] = jsonFinding{File: wantFiles[i], Line: pos.Line, Col: pos.Column, Analyzer: d.Analyzer, Message: d.Message}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("render -json mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRenderJSONEmptyIsArray: a clean run must emit "[]", not "null",
// so CI consumers can always index into the result.
func TestRenderJSONEmptyIsArray(t *testing.T) {
	fset := token.NewFileSet()
	var buf bytes.Buffer
	if err := render(&buf, fset, "/", nil, true); err != nil {
		t.Fatal(err)
	}
	if got := string(bytes.TrimSpace(buf.Bytes())); got != "[]" {
		t.Errorf("clean run must emit an empty JSON array, got %q", got)
	}
}

// TestRenderText pins the human-readable line format.
func TestRenderText(t *testing.T) {
	dir := t.TempDir()
	fset, diags := fakeDiags(t, dir)

	var buf bytes.Buffer
	if err := render(&buf, fset, dir, diags[:1], false); err != nil {
		t.Fatal(err)
	}
	pos := fset.Position(diags[0].Pos)
	want := fmt.Sprintf("%s:%d:%d: [framelint] signal targets slot 3 of frame f, but it has only 1 slot(s)\n",
		filepath.Join("pkg", "a.go"), pos.Line, pos.Column)
	if buf.String() != want {
		t.Errorf("render text = %q, want %q", buf.String(), want)
	}
}
