package pin

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFirstDiff(t *testing.T) {
	events := `[{"Time":100,"Kind":1,"Node":0},{"Time":51200,"Kind":3,"Node":2},{"Time":51300,"Kind":1,"Node":0}]`
	for _, c := range []struct{ name, a, b, want string }{
		{"identical", events, events, ""},
		{"nested field", `{"Nodes":{"busy":{"ns":5}},"Elapsed":7}`, `{"Elapsed":7,"Nodes":{"busy":{"ns":6}}}`,
			"Nodes.busy.ns: 5 vs 6"},
		{"event array", events, strings.Replace(events, "51200", "51201", 1),
			"[1].Time: 51200 vs 51201\n" +
				`  first:  {"Kind":3,"Node":2,"Time":51200}` + "\n" +
				`  second: {"Kind":3,"Node":2,"Time":51201}`},
		{"field only on one side", `[{"Time":1}]`, `[{"Kind":2,"Time":1}]`,
			"[0].Time: 1 vs [0].Kind: 2\n" + `  first:  {"Time":1}` + "\n" + `  second: {"Kind":2,"Time":1}`},
		{"longer array", `{"xs":[1,2]}`, `{"xs":[1,2,3]}`, "xs[2]: nothing vs 3"},
		{"longer event array", `[{"T":1}]`, `[{"T":1},{"T":2}]`,
			"[1].T: nothing vs 2\n  first:  nothing\n" + `  second: {"T":2}`},
		{"same JSON, other spacing", `{"a": 1}`, `{"a":1}`, `line 1: "{\"a\": 1}" vs "{\"a\":1}"`},
		{"text", "Table 1\nspeedup 2.5\nend", "Table 1\nspeedup 2.6\nend", `line 2: "speedup 2.5" vs "speedup 2.6"`},
		{"text, one line more", "a\nb", "a\nb\n", `line 3: nothing vs ""`},
	} {
		if got := FirstDiff([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("%s: FirstDiff =\n%s\nwant\n%s", c.name, got, c.want)
		}
	}
}

func digestOf(s string) string { return sumOf([]byte(s)) }

// withManifest writes text as a manifest and loads it, -update set as
// given for the rest of the test.
func withManifest(t *testing.T, text string, up bool) (*manifest, error) {
	t.Helper()
	old := *update
	*update = up
	t.Cleanup(func() { *update = old })
	path := filepath.Join(t.TempDir(), "testdata", "outputs.sha256")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return load(path)
}

func TestLoadRejectsMalformedManifests(t *testing.T) {
	sum := digestOf("x")
	for _, text := range []string{
		sum + " T/a\n",                              // one space
		sum + "  T/a",                               // no final newline
		sum[:63] + "  T/a\n",                        // short digest
		strings.ToUpper(sum) + "  T/a\n",            // not as written
		"zz" + sum[2:] + "  T/a\n",                  // not hex
		sum + "  \n",                                // no key
		sum + "  T/a b\n",                           // a space in the key
		sum + "  T/a\n" + sum + "  T/b\n\n",         // a blank line
		sum + "  T/a\n" + digestOf("y") + "  T/a\n", // a second entry
	} {
		if _, err := withManifest(t, text, false); err == nil {
			t.Errorf("load accepted %q", text)
		}
	}
	if m, err := withManifest(t, "", false); err != nil || len(m.want) != 0 {
		t.Errorf("empty manifest: %v, %v", m, err)
	}
}

func TestCheckNamesEntryAndKeepsBytes(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	m, err := withManifest(t, digestOf("old")+"  T/out\n", false)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.check("T/out", []byte("old")); p != "" {
		t.Errorf("pinned bytes rejected: %s", p)
	}
	p := m.check("T/out", []byte("new"))
	for _, want := range []string{"T/out", digestOf("old"), digestOf("new")} {
		if !strings.Contains(p, want) {
			t.Errorf("problem %q does not name %s", p, want)
		}
	}
	_, kept, _ := strings.Cut(p, "this run's bytes are in ")
	if b, err := os.ReadFile(kept); err != nil || string(b) != "new" {
		t.Errorf("kept file %q: %q, %v", kept, b, err)
	}
	if p := m.check("T/other", nil); !strings.Contains(p, "has no entry") {
		t.Errorf("an artefact without an entry: %q", p)
	}
}

func TestFinishFailsOnStaleEntryOfAFullRun(t *testing.T) {
	m, err := withManifest(t, digestOf("a")+"  T/a\n"+digestOf("b")+"  T/b\n", false)
	if err != nil {
		t.Fatal(err)
	}
	m.check("T/a", []byte("a"))
	if err := m.finish(false); err != nil {
		t.Errorf("a narrowed run failed: %v", err)
	}
	if err := m.finish(true); err == nil || !strings.Contains(err.Error(), "T/b") {
		t.Errorf("a full run that did not produce T/b: %v", err)
	}
}

func TestUpdateRewritesSortedAndDropsStale(t *testing.T) {
	old := digestOf("a") + "  T/a\n" + digestOf("stale") + "  T/stale\n"
	for _, full := range []bool{true, false} {
		m, err := withManifest(t, old, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"T/z", "T/a", "T/m/sub"} {
			if p := m.check(key, []byte(key)); p != "" {
				t.Errorf("under -update: %s", p)
			}
		}
		if err := m.finish(full); err != nil {
			t.Fatal(err)
		}
		want := digestOf("T/a") + "  T/a\n" + digestOf("T/m/sub") + "  T/m/sub\n" + digestOf("T/z") + "  T/z\n"
		if !full { // a narrowed run keeps what it did not reach
			want = digestOf("T/a") + "  T/a\n" + digestOf("T/m/sub") + "  T/m/sub\n" + digestOf("stale") + "  T/stale\n" + digestOf("T/z") + "  T/z\n"
		}
		if b, _ := os.ReadFile(m.path); string(b) != want {
			t.Errorf("full run %v: manifest\n%s\nwant\n%s", full, b, want)
		}
	}
}
