package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"earth/internal/harness"
	"earth/internal/pin"
)

func TestMain(m *testing.M) { os.Exit(pin.Main(m)) }

// TestExperimentsPinned runs every row of the experiment table as
// `paperfigs -exp <row> -runs 2 -nodes 1,2,4 -seed 1 -json F` and pins its
// stdout and its -json report in testdata/outputs.sha256: a change in any
// application that moves a simulated byte fails the subtest named after
// the experiment.
func TestExperimentsPinned(t *testing.T) {
	for _, e := range harness.Experiments(nil) {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			jsonPath := filepath.Join(t.TempDir(), "report.json")
			var stdout, stderr bytes.Buffer
			args := []string{"-exp", e.Name, "-runs", "2", "-nodes", "1,2,4", "-seed", "1", "-json", jsonPath}
			if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("paperfigs %s: exit code %d\n%s", strings.Join(args, " "), code, stderr.Bytes())
			}
			report, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			pin.Bytes(t, "stdout", stdout.Bytes())
			pin.Bytes(t, "report.json", report)
		})
	}
}

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
// Not parallel: a process has one CPU profile.
func TestProfilingFlagsChangeNoOutput(t *testing.T) {
	dir := t.TempDir()
	paperfigs := func(name string, extra ...string) (output, report []byte) {
		t.Helper()
		jsonPath := filepath.Join(dir, name+".json")
		args := append([]string{"-exp", "table1", "-runs", "1", "-nodes", "2", "-json", jsonPath}, extra...)
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 0 {
			t.Fatalf("paperfigs %s: exit code %d\n%s", strings.Join(args, " "), code, out.Bytes())
		}
		report, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), report
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plainOut, plainJSON := paperfigs("plain")
	profOut, profJSON := paperfigs("profiled", "-cpuprofile", cpu, "-memprofile", mem)
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

// TestBadInputExits2: a -faults plan some machine of the sweep cannot
// survive, a machine of no size, or a -json file that cannot be created
// is rejected with one "paperfigs: …" line and exit code 2 before any
// engine is built; the removed -shards flag (PR 19) is an unknown flag,
// so a script that still passes it fails with the usage instead of
// running with it ignored.
func TestBadInputExits2(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "chaos", "-nodes", "2,4", "-faults", "crash=0@1ms,crash=1@2ms"}, "bad -faults: on 2 nodes"},
		{[]string{"-exp", "table1", "-nodes", "0"}, "bad -nodes entry"},
		{[]string{"-exp", "table1", "-json", unwritable}, "no-such-dir"},
	} {
		var out bytes.Buffer
		if code := run(c.args, &out, &out); code != 2 {
			t.Errorf("paperfigs %s: exit code %d, want 2\n%s", strings.Join(c.args, " "), code, out.Bytes())
		}
		if msg := out.String(); !strings.HasPrefix(msg, "paperfigs: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
			t.Errorf("paperfigs %s: output %q, want one \"paperfigs: …%s…\" line", strings.Join(c.args, " "), msg, c.want)
		}
	}
	var out bytes.Buffer
	code := run([]string{"-exp", "table1", "-shards", "2"}, &out, &out)
	if msg := out.String(); code != 2 ||
		!strings.Contains(msg, "flag provided but not defined: -shards") || !strings.Contains(msg, "Usage of paperfigs") {
		t.Errorf("paperfigs -shards 2: exit code %d, output %q; want 2 and the unknown-flag error with the usage", code, msg)
	}
}
