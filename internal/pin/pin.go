// Package pin holds a package's test outputs to digests committed beside
// them. A pinning package keeps one manifest, testdata/outputs.sha256: a
// "<sha256>  <key>" line per artefact, sorted by key, where the key is the
// name of the test that produced the artefact followed by the artefact's
// name. Its tests call Bytes, and its TestMain is
//
//	func TestMain(m *testing.M) { os.Exit(pin.Main(m)) }
//
// `go test -update` rewrites the manifest from what the run produced, so a
// change that moves an output byte shows up as a changed line of its diff.
// There is one manifest per package because go test runs the packages'
// binaries in parallel.
package pin

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// File is a pinning package's manifest, relative to its directory.
const File = "testdata/outputs.sha256"

var update = flag.Bool("update", false, "rewrite "+File+" from the outputs this run produces")

// manifest is a package's committed digests and the digests its run
// produced.
type manifest struct {
	path      string
	mu        sync.Mutex
	want, got map[string]string
}

var current *manifest

// Main runs the package's tests against its manifest. After a passing run
// it rewrites the manifest under -update; otherwise, when no -run, -skip or
// -list narrowed the run, it fails on an entry that no test produced.
func Main(m *testing.M) int {
	flag.Parse()
	everyTest := true
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		everyTest = everyTest && flag.Lookup(name).Value.String() == ""
	}
	var err error
	if current, err = load(File); err == nil {
		if code := m.Run(); code != 0 {
			return code
		}
		err = current.finish(everyTest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pin:", err)
		return 1
	}
	return 0
}

// load reads a manifest; under -update a missing file is an empty one.
func load(path string) (*manifest, error) {
	m := &manifest{path: path, want: map[string]string{}, got: map[string]string{}}
	b, err := os.ReadFile(path)
	if *update && errors.Is(err, fs.ErrNotExist) {
		return m, nil
	} else if err != nil {
		return nil, err
	}
	for i, line := range strings.SplitAfter(string(b), "\n") {
		sum, key, ok := strings.Cut(line, "  ")
		key, nl := strings.CutSuffix(key, "\n")
		raw, err := hex.DecodeString(sum)
		if line == "" { // what follows the last newline
			break
		} else if !ok || !nl || err != nil || len(raw) != sha256.Size || hex.EncodeToString(raw) != sum ||
			key == "" || strings.ContainsAny(key, " \t") {
			return nil, fmt.Errorf("%s:%d: %q is not \"<sha256>  <key>\"", path, i+1, line)
		} else if _, dup := m.want[key]; dup {
			return nil, fmt.Errorf("%s:%d: a second entry for %s", path, i+1, key)
		}
		m.want[key] = sum
	}
	return m, nil
}

// Bytes fails t unless b hashes to the manifest's entry for the artefact
// name of the running test. Under -update it records b's digest instead.
func Bytes(t testing.TB, name string, b []byte) {
	t.Helper()
	if current == nil {
		t.Fatal("pin: the package's TestMain does not call pin.Main")
	}
	if problem := current.check(t.Name()+"/"+name, b); problem != "" {
		t.Error("pin: " + problem)
	}
}

// check records key's digest and returns what is wrong with it, or "". An
// artefact that fails its pin is written to a temporary file that is kept.
func (m *manifest) check(key string, b []byte) string {
	got := sumOf(b)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.got[key] = got
	want, ok := m.want[key]
	if *update || want == got {
		return ""
	} else if !ok {
		want = "no entry"
	}
	kept := "this run's bytes are in "
	f, err := os.CreateTemp("", "pin-*-"+path.Base(key))
	if err == nil {
		kept += f.Name()
		_, err = f.Write(b)
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		kept = "keeping this run's bytes failed: " + err.Error()
	}
	return fmt.Sprintf("%s: got sha256 %s, %s has %s (go test -update rewrites it); %s", key, got, m.path, want, kept)
}

func sumOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// finish ends a passing run. Under -update it writes the manifest: every
// digest the run produced, plus, on a narrowed run, the entries it did not
// reach. Otherwise, on a run of every test, an entry that no test produced
// is an error.
func (m *manifest) finish(everyTest bool) error {
	var stale, lines []string
	for key, want := range m.want {
		if _, ok := m.got[key]; !ok {
			stale = append(stale, key)
			lines = append(lines, want+"  "+key+"\n")
		}
	}
	if sort.Strings(stale); !*update && everyTest && len(stale) > 0 {
		return fmt.Errorf("%s: no test produced %s (go test -update drops them)", m.path, strings.Join(stale, ", "))
	} else if !*update {
		return nil
	} else if everyTest {
		lines = nil
	}
	for key, got := range m.got {
		lines = append(lines, got+"  "+key+"\n")
	}
	const keyAt = 2*sha256.Size + 2
	sort.Slice(lines, func(i, j int) bool { return lines[i][keyAt:] < lines[j][keyAt:] })
	if err := os.MkdirAll(filepath.Dir(m.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(m.path, []byte(strings.Join(lines, "")), 0o644)
}

// FirstDiff describes where a and b first differ, or returns "" when they
// are equal. When both are JSON it names the path of the first differing
// value, taking object keys in sorted order — "[1234].Time: 51200 vs
// 51201" — and prints the innermost array elements on that path whole, so
// that a trace names its event. Otherwise it names the first differing
// line.
func FirstDiff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	var va, vb any
	if json.Unmarshal(a, &va) == nil && json.Unmarshal(b, &vb) == nil {
		if d := describe(flatten("", va, nil, nil), flatten("", vb, nil, nil)); d != "" {
			return d
		}
	}
	return describe(textLeaves(a), textLeaves(b))
}

// A leaf is one scalar of a JSON document, with the innermost array
// element that holds it, or one line of text.
type leaf struct {
	path, val string
	elem      any
}

func flatten(path string, v, elem any, out []leaf) []leaf {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = flatten(path+"."+k, v[k], elem, out)
		}
	case []any:
		for i, e := range v {
			out = flatten(fmt.Sprintf("%s[%d]", path, i), e, e, out)
		}
	default:
		b, _ := json.Marshal(v)
		out = append(out, leaf{strings.TrimPrefix(path, "."), string(b), elem})
	}
	return out
}

func textLeaves(b []byte) (out []leaf) {
	for i, line := range strings.Split(string(b), "\n") {
		out = append(out, leaf{fmt.Sprintf("line %d", i+1), strconv.Quote(line), nil})
	}
	return out
}

// describe names the first leaf where a and b differ, or returns "".
func describe(a, b []leaf) string {
	i := 0
	for i < len(a) && i < len(b) && a[i].path == b[i].path && a[i].val == b[i].val {
		i++
	}
	if i == len(a) && i == len(b) {
		return ""
	}
	x, y := leafAt(a, b, i), leafAt(b, a, i)
	d := fmt.Sprintf("%s: %s vs %s", x.path, x.val, y.val)
	if x.path != y.path {
		d = fmt.Sprintf("%s: %s vs %s: %s", x.path, x.val, y.path, y.val)
	}
	if ex, ey := show(x.elem), show(y.elem); (x.elem != nil || y.elem != nil) && (ex != x.val || ey != y.val) {
		d += "\n  first:  " + ex + "\n  second: " + ey
	}
	return d
}

// leafAt is l's i-th leaf, or nothing at the other side's path.
func leafAt(l, other []leaf, i int) leaf {
	if i < len(l) {
		return l[i]
	}
	return leaf{path: other[i].path, val: "nothing"}
}

// show prints a decoded value; an array element that is not there prints
// as nothing.
func show(v any) string {
	if v == nil {
		return "nothing"
	}
	b, _ := json.Marshal(v)
	return string(b)
}
