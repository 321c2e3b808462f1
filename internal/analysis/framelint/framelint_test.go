package framelint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"earth/internal/analysis/framework"
)

func TestFramelint(t *testing.T) {
	framework.RunTest(t, "testdata", Analyzer, "./...")
}

// TestPatrolsEveryPackage: framelint has no scope list. A signal to a
// slot no InitSync initialises is reported in the engine and
// observability packages, which the former list left out.
func TestPatrolsEveryPackage(t *testing.T) {
	const src = `package %s

type Frame struct{}

func NewFrame(home, nthreads, nslots int) *Frame { return &Frame{} }

func (f *Frame) SetThread(id int, body func(Ctx)) *Frame     { return f }
func (f *Frame) InitSync(s, count, reset, thread int) *Frame { return f }

type Ctx interface{ Sync(f *Frame, slot int) }

func Storm(c Ctx) {
	f := NewFrame(0, 1, 2)
	f.SetThread(0, func(Ctx) {})
	f.InitSync(0, 1, 0, 0)
	c.Sync(f, 0)
	c.Sync(f, 1)
}
`
	for _, dir := range []string{"internal/earth", "internal/earth/simrt", "internal/obs"} {
		t.Run(dir, func(t *testing.T) {
			root := t.TempDir()
			pkgDir := filepath.Join(root, dir)
			if err := os.MkdirAll(pkgDir, 0o755); err != nil {
				t.Fatal(err)
			}
			files := map[string]string{
				filepath.Join(root, "go.mod"):     "module earth\n\ngo 1.22\n",
				filepath.Join(pkgDir, "storm.go"): fmt.Sprintf(src, filepath.Base(dir)),
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
			diags, err := framework.RunAnalyzers(fset, pkgs, []*framework.Analyzer{Analyzer})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != 1 || !strings.Contains(diags[0].Message, "signal targets slot 1 of frame f") {
				t.Fatalf("diagnostics %v, want one signal to the uninitialised slot 1", diags)
			}
		})
	}
}
