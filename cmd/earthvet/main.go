// Command earthvet is the repo's domain-specific vet driver: it runs the
// determinism and EARTH-API analyzers (detlint, locklint, framelint)
// over the given package patterns and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/earthvet ./...
//	go run ./cmd/earthvet -list
//	go run ./cmd/earthvet -only detlint ./internal/harness/...
//	go run ./cmd/earthvet -json ./... > findings.json
//
// Findings print as file:line:col: [analyzer] message, or with -json as
// a machine-readable array of {file, line, col, analyzer, message}
// objects (always an array, "[]" when clean, so CI consumers need no
// special empty case). A finding is silenced in source with a
// //<analyzer>:allow <reason> comment — the reason is mandatory and
// reasonless directives are themselves findings.
//
// earthvet is built on the stdlib-only framework in internal/analysis
// (no golang.org/x/tools dependency), so it runs offline straight from
// the module: loading uses `go list -export` against the local build
// cache.
//
// Exit codes: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"earth/internal/analysis/detlint"
	"earth/internal/analysis/framelint"
	"earth/internal/analysis/framework"
	"earth/internal/analysis/locklint"
)

var analyzers = []*framework.Analyzer{
	detlint.Analyzer,
	locklint.Analyzer,
	framelint.Analyzer,
}

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: earthvet [-list] [-only names] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *only != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "earthvet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "earthvet: %v\n", err)
		os.Exit(2)
	}
	fset := token.NewFileSet()
	pkgs, err := framework.Load(fset, cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "earthvet: %v\n", err)
		os.Exit(2)
	}

	diags, err := framework.RunAnalyzers(fset, pkgs, selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "earthvet: %v\n", err)
		os.Exit(2)
	}
	if err := render(os.Stdout, fset, cwd, diags, *asJSON); err != nil {
		fmt.Fprintf(os.Stderr, "earthvet: %v\n", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "earthvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// render writes the diagnostics as text or JSON with cwd-relative paths.
func render(w io.Writer, fset *token.FileSet, cwd string, diags []framework.Diagnostic, asJSON bool) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		findings = append(findings, jsonFinding{
			File: file, Line: pos.Line, Col: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(findings)
	}
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message); err != nil {
			return err
		}
	}
	return nil
}
