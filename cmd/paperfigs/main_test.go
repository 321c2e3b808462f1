package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// TestProfilingFlagsChangeNoOutput: -cpuprofile/-memprofile write their
// two files and leave stdout, stderr and the -json report byte-identical.
func TestProfilingFlagsChangeNoOutput(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "paperfigs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(name string, extra ...string) (output, report []byte) {
		t.Helper()
		jsonPath := filepath.Join(dir, name+".json")
		args := append([]string{"-exp", "table1", "-runs", "1", "-nodes", "2", "-json", jsonPath}, extra...)
		output, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("paperfigs %s: %v\n%s", strings.Join(args, " "), err, output)
		}
		if report, err = os.ReadFile(jsonPath); err != nil {
			t.Fatal(err)
		}
		return output, report
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plainOut, plainJSON := run("plain")
	profOut, profJSON := run("profiled", "-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(plainOut, profOut) {
		t.Errorf("output differs with profiling on:\n%s\nvs\n%s", plainOut, profOut)
	}
	if !bytes.Equal(plainJSON, profJSON) {
		t.Error("-json report differs with profiling on")
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}
}
