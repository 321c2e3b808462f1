// Command benchjson converts `go test -bench` output into a stable JSON
// document so benchmark baselines can be committed and diffed across PRs.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson > now.json
//	go run ./cmd/benchjson -in bench.txt -out now.json
//	go run ./cmd/benchjson -compare BENCH_5.json now.json -threshold 0.15
//
// The output maps each benchmark name (with the -N GOMAXPROCS suffix
// stripped) to its ns/op, and B/op and allocs/op when -benchmem was on;
// under -count N it keeps each benchmark's median run.
// Names are sorted, so regenerating with unchanged performance yields a
// byte-identical file.
//
// -compare diffs two such files and exits non-zero when any benchmark's
// ns/op grew by more than the threshold fraction (default 0.15), which
// makes it usable directly as a CI perf-regression gate. With -require
// only the listed benchmarks (and their sub-benchmarks) block; every
// other regression is downgraded to an advisory warning, so a curated
// tier-1 list can gate CI while noisier microbenchmarks merely report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's measurements. The memory columns are
// pointers so a measured zero (a 0 B/op, 0 allocs/op benchmark under
// -benchmem) still lands in the JSON — omitempty on a plain float64
// silently dropped those, which hid allocation regressions on the
// allocation-free benchmarks. nil means -benchmem was off.
type Result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BPerOp      *float64 `json:"b_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkFoo-4   123   456.7 ns/op   89 B/op   10 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parse reads `go test -bench` output. A benchmark that appears more than
// once (-count N) is reported by its median line by ns/op — the lower of
// the two middle ones for an even N — so B/op and allocs/op come from the
// same run as the time.
func parse(r io.Reader) (map[string]Result, error) {
	runs := map[string][]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		var res Result
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BPerOp = &v
			case "allocs/op":
				res.AllocsPerOp = &v
			}
		}
		runs[m[1]] = append(runs[m[1]], res)
	}
	out := make(map[string]Result, len(runs))
	for name, rs := range runs {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		out[name] = rs[(len(rs)-1)/2]
	}
	return out, sc.Err()
}

// delta is one benchmark's old-to-new comparison.
type delta struct {
	name     string
	old, new float64
}

func (d delta) ratio() float64 { return d.new / d.old }

// required reports whether name falls under one of the curated prefixes.
// A prefix matches the whole benchmark or any of its sub-benchmarks.
func required(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if name == p || strings.HasPrefix(name, p+"/") {
			return true
		}
	}
	return false
}

// compare diffs two parsed baselines and writes a sorted report to w. It
// returns the number of *blocking* regressions: with an empty require
// list every benchmark whose ns/op grew past the threshold counts;
// with -require only the curated benchmarks block and the rest are
// reported as advisory warnings.
func compare(old, cur map[string]Result, threshold float64, require []string, w io.Writer) int {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions := 0
	for _, n := range names {
		o, ok := old[n]
		if !ok {
			fmt.Fprintf(w, "new      %-50s %12.1f ns/op\n", n, cur[n].NsPerOp)
			continue
		}
		if o.NsPerOp <= 0 || cur[n].NsPerOp <= 0 {
			continue
		}
		blocking := len(require) == 0 || required(n, require)
		d := delta{name: n, old: o.NsPerOp, new: cur[n].NsPerOp}
		switch r := d.ratio(); {
		case r > 1+threshold:
			tag := "REGRESS "
			if blocking {
				regressions++
			} else {
				tag = "warn    "
			}
			fmt.Fprintf(w, "%s %-50s %12.1f -> %12.1f ns/op (%+.1f%%)\n",
				tag, n, d.old, d.new, 100*(r-1))
		case r < 1-threshold:
			fmt.Fprintf(w, "improve  %-50s %12.1f -> %12.1f ns/op (%+.1f%%)\n",
				n, d.old, d.new, 100*(r-1))
		}
	}
	removed := make([]string, 0, len(old))
	for n := range old {
		if _, ok := cur[n]; !ok {
			removed = append(removed, n)
		}
	}
	sort.Strings(removed)
	for _, n := range removed {
		fmt.Fprintf(w, "removed  %s\n", n)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d benchmark(s) regressed beyond %.0f%%\n", regressions, 100*threshold)
	} else {
		fmt.Fprintf(w, "no blocking regressions beyond %.0f%% (%d benchmarks compared)\n",
			100*threshold, len(names))
	}
	return regressions
}

func loadBaseline(path string) map[string]Result {
	b, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var m map[string]Result
	if err := json.Unmarshal(b, &m); err != nil {
		fail("%s: %v", path, err)
	}
	return m
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	cmp := flag.String("compare", "", "old baseline JSON; compares against the new baseline given as a positional argument")
	threshold := flag.Float64("threshold", 0.15, "regression threshold as a fraction of old ns/op (with -compare)")
	require := flag.String("require", "",
		"comma-separated benchmark names (sub-benchmark prefixes included) whose regressions are blocking; all others become advisory warnings (with -compare)")
	flag.Parse()

	if *cmp != "" {
		args := flag.Args()
		if len(args) < 1 {
			fail("-compare needs the new baseline as a positional argument")
		}
		// Support trailing flags after the positionals, as in
		// `-compare old.json new.json -threshold 0.15`.
		for i := 1; i < len(args); i++ {
			switch {
			case (args[i] == "-threshold" || args[i] == "--threshold") && i+1 < len(args):
				v, err := strconv.ParseFloat(args[i+1], 64)
				if err != nil {
					fail("bad -threshold %q", args[i+1])
				}
				*threshold = v
				i++
			case (args[i] == "-require" || args[i] == "--require") && i+1 < len(args):
				*require = args[i+1]
				i++
			}
		}
		var curated []string
		for _, p := range strings.Split(*require, ",") {
			if p = strings.TrimSpace(p); p != "" {
				curated = append(curated, p)
			}
		}
		if n := compare(loadBaseline(*cmp), loadBaseline(args[0]), *threshold, curated, os.Stdout); n > 0 {
			os.Exit(1)
		}
		return
	}

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		src = f
	}
	results, err := parse(src)
	if err != nil {
		fail("%v", err)
	}
	if len(results) == 0 {
		fail("no benchmark lines found (expected `go test -bench` output)")
	}

	// encoding/json sorts map keys, but build an ordered doc explicitly so
	// the stable-output guarantee does not hinge on that detail.
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		rec, err := json.Marshal(results[n])
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(&b, "  %q: %s", n, rec)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")

	if *out == "" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
