package main

import (
	"os"
	"strings"
	"testing"

	"earth/internal/harness"
)

// TestExpNames: the names -exp accepts are exactly the experiment
// table's — every row, its group and "all" resolve, anything else is
// rejected with the full list — and the two places that spell the list
// out for readers (this command's usage comment and the README tool
// table) match the table.
func TestExpNames(t *testing.T) {
	names := harness.ExperimentNames()
	rows := harness.Experiments(nil)
	if want := len(rows) + 2; len(names) != want { // + "all" and "ablations"
		t.Errorf("%d names for %d table rows, want %d: %v", len(names), len(rows), want, names)
	}
	for _, n := range names {
		if _, err := harness.Select(n, nil); err != nil {
			t.Errorf("-exp %s rejected: %v", n, err)
		}
	}
	list := strings.Join(names, "|")
	for _, bad := range []string{"", "figure3", "ablation"} {
		if _, err := harness.Select(bad, nil); err == nil || !strings.Contains(err.Error(), list) {
			t.Errorf("-exp %q: error %v, want a rejection listing %s", bad, err, list)
		}
	}
	for _, path := range []string{"main.go", "../../README.md"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The lists are wrapped; compare with comment markers, code
		// quotes and whitespace removed.
		flat := strings.NewReplacer("//", "", "`", "", " ", "", "\t", "", "\n", "").Replace(string(b))
		if !strings.Contains(flat, list) {
			t.Errorf("%s does not list the -exp names of the table:\n%s", path, list)
		}
	}
}
