package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"earth/internal/earth"
	"earth/internal/eigen"
	"earth/internal/groebner"
	"earth/internal/harness"
	"earth/internal/manna"
	"earth/internal/neural"
	"earth/internal/pin"
)

func TestMain(m *testing.M) { os.Exit(pin.Main(m)) }

// TestBadInputExits2: input no machine can run — a fault plan that leaves
// no node to adopt work, a machine or a network layer of no size, a jitter
// that would run the clock backwards — or an output file that cannot be
// created is the user's error: one "earthsim: …" line on stderr and exit
// code 2 before any engine is built, never a Go stack trace, on either
// engine.
func TestBadInputExits2(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the message
	}{
		{"crash plan kills every node", []string{"-nodes", "2", "-faults", "crash=0@1ms,crash=1@2ms"}, "kills every node"},
		{"the same on livert", []string{"-live", "-nodes", "2", "-faults", "crash=0@1ms,crash=1@2ms"}, "kills every node"},
		{"every node fenced or crashed", []string{"-nodes", "2", "-faults", "partition=0|1@0s-5ms,crash=0@1ms"}, "no survivor"},
		{"nobody stays clean", []string{"-nodes", "2", "-faults", "partition=0|1@0s-5ms,crash=0@9ms"}, "at least one node must stay clean"},
		{"nn without units", []string{"-app", "nn", "-units", "0"}, "-units"},
		{"nn with negative units", []string{"-app", "nn", "-units", "-4"}, "-units"},
		{"no nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative nodes", []string{"-nodes", "-3"}, "-nodes"},
		{"unparsable plan", []string{"-faults", "crash=*@1ms"}, "bad -faults"},
		{"jitter above 100 percent on nn", []string{"-jitter", "300", "-app", "nn", "-nodes", "6"}, "-jitter"},
		{"jitter above 100 percent on groebner", []string{"-jitter", "1000", "-app", "groebner", "-nodes", "6"}, "-jitter"},
		{"negative jitter", []string{"-jitter", "-1"}, "-jitter"},
		{"retry jitter of 1", []string{"-retry-jitter", "1", "-faults", "drop=0.1"}, "-retry-jitter"},
		{"negative retry lease", []string{"-retry-lease", "-1ms", "-faults", "drop=0.1"}, "-retry-lease"},
		{"no runs", []string{"-runs", "0"}, "-runs"},
		{"negative workers", []string{"-runs", "2", "-workers", "-1"}, "-workers"},
		{"unwritable trace", []string{"-nodes", "2", "-trace", unwritable}, "no-such-dir"},
		{"unwritable stats json", []string{"-nodes", "2", "-stats-json", unwritable}, "no-such-dir"},
		{"unwritable sanitize json", []string{"-nodes", "2", "-sanitize-json", unwritable}, "no-such-dir"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			msg := stderr.String()
			if code != 2 {
				t.Errorf("exit code %d, want 2\n%s", code, msg)
			}
			if !strings.HasPrefix(msg, "earthsim: ") || strings.Count(msg, "\n") != 1 ||
				!strings.Contains(msg, c.want) {
				t.Errorf("stderr = %q, want one \"earthsim: …%s…\" line", msg, c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed %q before rejecting the input", stdout.Bytes())
			}
		})
	}
	// -shards was removed with the shard workers (PR 19): a script that
	// still passes it must fail loudly, not run with the flag ignored.
	t.Run("removed -shards flag", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-nodes", "2", "-shards", "2"}, &stdout, &stderr)
		if msg := stderr.String(); code != 2 || stdout.Len() != 0 ||
			!strings.Contains(msg, "flag provided but not defined: -shards") || !strings.Contains(msg, "Usage of earthsim") {
			t.Errorf("exit code %d, stdout %q, stderr %q; want 2, nothing, and the unknown-flag error with the usage", code, stdout.Bytes(), msg)
		}
	})
}

// TestOptionsDocumented: every field of every exported option struct has
// a row in one of DESIGN.md's who-sets-what tables, which name who sets
// it. A field added without saying so fails here. A table row names
// fields in its cells before the last, in backquotes: earth.Config's
// bare (`Seed`, `Retry.Lease`), the others qualified
// (`harness.Config.Runs`); a struct-typed field is covered by rows for
// its own fields.
func TestOptionsDocumented(t *testing.T) {
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	inTables := false
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "#") {
			inTables = strings.Contains(line, "who sets what")
		}
		if cells := strings.Split(line, "|"); inTables && len(cells) > 3 {
			for i, s := range strings.Split(strings.Join(cells[1:len(cells)-2], "|"), "`") {
				if i%2 == 1 {
					rows = append(rows, s)
				}
			}
		}
	}
	documented := func(name string) bool {
		for _, r := range rows {
			if r == name || strings.HasPrefix(r, name+".") {
				return true
			}
		}
		return false
	}
	for _, s := range []struct {
		prefix string
		v      any
	}{
		{"", earth.Config{}},
		{"Retry.", earth.RetryPolicy{}},
		{"Coalesce.", earth.CoalesceConfig{}},
		{"harness.Config.", harness.Config{}},
		{"eigen.ParallelConfig.", eigen.ParallelConfig{}},
		{"neural.ParallelConfig.", neural.ParallelConfig{}},
		{"neural.SampleConfig.", neural.SampleConfig{}},
		{"groebner.ParallelConfig.", groebner.ParallelConfig{}},
		{"groebner.Options.", groebner.Options{}},
		{"manna.Config.", manna.Config{}},
	} {
		typ := reflect.TypeOf(s.v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !documented(s.prefix+f.Name) {
				t.Errorf("%v.%s has no row in DESIGN.md's who-sets-what tables (want `%s%s`)",
					typ, f.Name, s.prefix, f.Name)
			}
		}
	}
}

// TestTraceWriteFailureExits1: a trace file that can be created but not
// written — a full device — is not a bad command line: the run happens,
// its statistics are printed, and the failure is one "earthsim: writing
// trace: …" line and exit code 1.
func TestTraceWriteFailureExits1(t *testing.T) {
	const full = "/dev/full"
	if f, err := os.OpenFile(full, os.O_WRONLY, 0); err != nil {
		t.Skipf("no %s here: %v", full, err)
	} else {
		f.Close()
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "nn", "-nodes", "4", "-trace", full}, &stdout, &stderr)
	msg := stderr.String()
	if code != 1 || !strings.HasPrefix(msg, "earthsim: writing trace: ") || strings.Count(msg, "\n") != 1 {
		t.Errorf("exit code %d, stderr %q; want 1 and one \"earthsim: writing trace: …\" line", code, msg)
	}
	if !strings.Contains(stdout.String(), "elapsed=") || strings.Contains(stdout.String(), "wrote ") {
		t.Errorf("stdout %q: want the run's statistics and no \"wrote N events\" line", stdout.Bytes())
	}
}

// TestLiveGroebnerPrintsNoSpeedup: a Gröbner run's speedup divides the
// modelled sequential time by the simulated parallel one, so earthsim
// prints it for a simrt run only: livert's elapsed time is the host's.
func TestLiveGroebnerPrintsNoSpeedup(t *testing.T) {
	for _, live := range []bool{false, true} {
		args := []string{"-app", "groebner", "-input", "Lazard", "-nodes", "4"}
		if live {
			args = append(args, "-live")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("earthsim %s: exit code %d\n%s", strings.Join(args, " "), code, stderr.Bytes())
		}
		out := stdout.String()
		if !strings.Contains(out, "basis=") || strings.Contains(out, "speedup=") == live {
			t.Errorf("live=%v: stdout %q, want a basis line with a speedup only on simrt", live, out)
		}
	}
}

// TestDeterminismMatrix is the byte-identity contract of the simulator
// at its CLI surface — local verify and CI run this same test. Each row
// is one earthsim command line; its stats JSON, Chrome trace, sanitizer
// report, stdout and stderr, on the per-message and on the batched
// (-coalesce) wire path, are pinned in the package manifest. The
// sanitizer report must also not depend on -coalesce, and nothing but the
// profile files themselves on -cpuprofile/-memprofile.
func TestDeterminismMatrix(t *testing.T) {
	// earthsim runs one command line and returns its artefacts by name.
	earthsim := func(t *testing.T, args []string, extra ...string) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		args = append(append([]string{}, args...), extra...)
		files := map[string]string{}
		for i, a := range args {
			if name, ok := artefacts[a]; ok {
				files[name] = filepath.Join(dir, name)
				args[i+1] = files[name]
			}
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("earthsim %s: exit code %d\n%s", strings.Join(args, " "), code, stderr.Bytes())
		}
		// The "wrote N events to <path>" line names the temp file.
		got := map[string][]byte{"stdout": bytes.ReplaceAll(stdout.Bytes(), []byte(dir), nil), "stderr": stderr.Bytes()}
		for name, path := range files {
			var err error
			if got[name], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	pinAll := func(t *testing.T, path string, got map[string][]byte) {
		t.Helper()
		for _, name := range sortedNames(got) {
			pin.Bytes(t, path+"/"+name, got[name])
		}
	}

	k4 := []string{"-app", "groebner", "-input", "Katsura-4", "-nodes", "8"}
	with := func(base []string, more ...string) []string { return append(append([]string{}, base...), more...) }
	const chaos, crash = "drop=0.06,dup=0.02,reorder=0.1", "crash=2@1ms,crash=5@3ms,drop=0.05"
	const partition = "partition=0.1.2.3.4.5|6.7@1ms-4ms,corrupt=0.03,drop=0.03"
	for _, row := range []struct {
		name string
		args []string
	}{
		{"clean", with(k4, "-stats-json", "", "-trace", "")},
		{"chaos", with(k4, "-faults", chaos, "-fault-seed", "42", "-stats-json", "", "-trace", "")},
		{"crash", with(k4, "-faults", crash, "-fault-seed", "42", "-stats-json", "", "-trace", "")},
		{"partition", with(k4, "-faults", partition, "-fault-seed", "42",
			"-retry-lease", "1ms", "-retry-jitter", "0.2", "-stats-json", "", "-trace", "")},
		{"nn-chaos", []string{"-app", "nn", "-nodes", "8", "-faults", chaos, "-fault-seed", "42", "-stats-json", ""}},
		{"sanitize", []string{"-app", "nn", "-nodes", "8", "-sanitize", "-stats-json", "", "-sanitize-json", ""}},
		{"critpath", []string{"-app", "eigen", "-nodes", "8", "-critpath"}},
		// The flags no other row sets, so every flag has a row.
		{"options", []string{"-app", "groebner", "-nodes", "6", "-distributed", "-costs", "mp300", "-balancer", "random",
			"-seed", "9", "-jitter", "3", "-sample", "100us", "-bars", "-metrics", "-stats-json", ""}},
		{"nn-train", []string{"-app", "nn", "-units", "33", "-train", "-nodes", "5", "-stats-json", ""}},
		{"runs", []string{"-app", "eigen", "-nodes", "4", "-runs", "3", "-workers", "2"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			one, coal := earthsim(t, row.args), earthsim(t, row.args, "-coalesce")
			pinAll(t, "plain", one)
			pinAll(t, "coalesce", coal)
			if d := pin.FirstDiff(one["sanitize.json"], coal["sanitize.json"]); d != "" {
				t.Errorf("-coalesce off vs on: sanitize.json differs at %s", d)
			}
		})
	}
	// Not parallel: a process has one CPU profile.
	t.Run("profiled", func(t *testing.T) {
		args := with(k4, "-stats-json", "", "-trace", "")
		plain, prof := earthsim(t, args), earthsim(t, args, "-cpuprofile", "", "-memprofile", "")
		for _, name := range sortedNames(plain) {
			if d := pin.FirstDiff(plain[name], prof[name]); d != "" {
				t.Errorf("-cpuprofile/-memprofile off vs on: %s differs at %s", name, d)
			}
		}
		for _, f := range []string{"cpu.pprof", "mem.pprof"} {
			if len(prof[f]) == 0 {
				t.Errorf("%s wrote an empty file", f)
			}
		}
	})
}

// artefacts names the file each of earthsim's output flags writes.
var artefacts = map[string]string{"-stats-json": "stats.json", "-trace": "trace.json",
	"-sanitize-json": "sanitize.json", "-cpuprofile": "cpu.pprof", "-memprofile": "mem.pprof"}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
