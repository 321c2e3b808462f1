package locklint_test

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"earth/internal/analysis/framework"
	"earth/internal/analysis/locklint"
)

func TestLocklint(t *testing.T) {
	framework.RunTest(t, "testdata", locklint.Analyzer, "./...")
}

// TestPatrolsEveryPackage: locklint has no scope list. A channel send
// under a held mutex is reported in packages outside the engines, where
// earth's receipt set and the trace recorder hold their locks.
func TestPatrolsEveryPackage(t *testing.T) {
	const src = `package %s

import "sync"

type SeenSet struct {
	mu   sync.Mutex
	seen map[uint64]bool
	out  chan uint64
}

func (s *SeenSet) Mark(id uint64) {
	s.mu.Lock()
	s.seen[id] = true
	s.out <- id
	s.mu.Unlock()
}
`
	for _, dir := range []string{"internal/earth", "internal/obs", "internal/harness"} {
		t.Run(dir, func(t *testing.T) {
			root := t.TempDir()
			pkgDir := filepath.Join(root, dir)
			if err := os.MkdirAll(pkgDir, 0o755); err != nil {
				t.Fatal(err)
			}
			files := map[string]string{
				filepath.Join(root, "go.mod"):    "module earth\n\ngo 1.22\n",
				filepath.Join(pkgDir, "seen.go"): fmt.Sprintf(src, filepath.Base(dir)),
			}
			for name, body := range files {
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fset := token.NewFileSet()
			pkgs, err := framework.Load(fset, root, "./...")
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) != 1 || pkgs[0].PkgPath != "earth/"+dir {
				t.Fatalf("loaded %d packages, want earth/%s alone", len(pkgs), dir)
			}
			diags, err := framework.RunAnalyzers(fset, pkgs, []*framework.Analyzer{locklint.Analyzer})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != 1 || !strings.Contains(diags[0].Message, "channel send while s.mu is held") {
				t.Fatalf("diagnostics %v, want one channel send under s.mu", diags)
			}
		})
	}
}
