package harness

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"earth/internal/stats"
)

// quickCfg keeps harness tests fast: tiny sweeps, single runs.
func quickCfg() Config {
	return Config{Runs: 1, Nodes: []int{2, 4}, Seed: 1}
}

func checkReport(t *testing.T, r *Report, id string, wants ...string) {
	t.Helper()
	if r.ID != id {
		t.Fatalf("ID = %q, want %q", r.ID, id)
	}
	text := r.String()
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("%s output missing %q:\n%s", id, w, text)
		}
	}
	if len(r.PaperVsMeasured) == 0 {
		t.Errorf("%s has no paper-vs-measured lines", id)
	}
}

func TestTable1(t *testing.T) {
	r := Table1(quickCfg())
	checkReport(t, r, "Table 1", "number of tasks", "28 bytes", "eigenvalues found             : 1000")
}

func TestFigure2(t *testing.T) {
	r, series := Figure2(quickCfg())
	checkReport(t, r, "Figure 2", "blockmove", "individual")
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	// Speedup at 4 nodes must exceed speedup at 2.
	p2, _ := series[0].At(2)
	p4, _ := series[0].At(4)
	if !(p4.Mean > p2.Mean && p2.Mean > 1.2) {
		t.Fatalf("speedups not increasing: %v %v", p2.Mean, p4.Mean)
	}
}

func TestTable2(t *testing.T) {
	r := Table2(quickCfg())
	checkReport(t, r, "Table 2", "Lazard", "Katsura-4", "Katsura-5")
	// Calibration makes the modelled sequential times match the paper.
	text := r.String()
	for _, w := range []string{"3761", "6373", "36274"} { // 362749/362750: integer rounding
		if !strings.Contains(text, w) {
			t.Errorf("calibrated seq time %s missing:\n%s", w, text)
		}
	}
}

func TestFigure4(t *testing.T) {
	r, series := Figure4(quickCfg())
	checkReport(t, r, "Figure 4", "Lazard/EARTH")
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if p, ok := s.At(4); !ok || p.Mean < 1.5 {
			t.Errorf("%s: no speedup at 4 nodes: %+v", s.Name, p)
		}
	}

	// A node list with no machine the sweep can run on (it needs a
	// maintenance node beside a worker) leaves the series empty; the
	// report says so instead of printing the peak of nothing.
	r, _ = Figure4(Config{Runs: 1, Nodes: []int{1}, Seed: 1})
	checkReport(t, r, "Figure 4", noPeak)
	if text := r.String(); strings.Contains(text, "Inf") || strings.Contains(text, "NaN") {
		t.Errorf("report of an empty sweep prints a non-number:\n%s", text)
	}
	if _, err := json.Marshal(r); err != nil {
		t.Errorf("report of an empty sweep does not marshal: %v", err)
	}
}

func TestFigure5(t *testing.T) {
	r, out := Figure5(quickCfg())
	checkReport(t, r, "Figure 5", "MP-300us", "MP-1000us")
	for name, series := range out {
		if len(series) != 4 {
			t.Fatalf("%s: %d series", name, len(series))
		}
	}
	// EARTH beats MP-1000us at 4 nodes for the small-grain Lazard.
	lz := out["Lazard"]
	e, _ := lz[0].At(4)
	mp, _ := lz[3].At(4)
	if e.Mean <= mp.Mean {
		t.Errorf("EARTH (%v) not ahead of MP-1000us (%v) on Lazard", e.Mean, mp.Mean)
	}
}

func TestTable3(t *testing.T) {
	r := Table3(quickCfg())
	checkReport(t, r, "Table 3", "units= 80", "units=200", "units=720")
}

func TestFigure7And8(t *testing.T) {
	r7, s7 := Figure7(quickCfg())
	checkReport(t, r7, "Figure 7", "nn-80", "nn-200", "nn-720")
	r8, s8 := Figure8(quickCfg())
	checkReport(t, r8, "Figure 8", "nn-80")
	// Larger nets parallelise at least as well at 4 nodes.
	p80, _ := s7[0].At(4)
	p720, _ := s7[2].At(4)
	if p720.Mean < p80.Mean-0.2 {
		t.Errorf("720-unit speedup (%v) below 80-unit (%v)", p720.Mean, p80.Mean)
	}
	if len(s8) != 3 {
		t.Fatalf("figure 8 series = %d", len(s8))
	}

	// NoCoalesce reaches the engines: the per-message wire path yields
	// the same finite series shape and a different number somewhere
	// (nn-80 at 20 nodes reads 11.74 unbatched against 11.67 batched).
	batched := Config{Runs: 1, Nodes: []int{20}, Seed: 1}
	unbatched := batched
	unbatched.NoCoalesce = true
	for name, fig := range map[string]func(Config) (*Report, []*stats.Series){"Figure 7": Figure7, "Figure 8": Figure8} {
		_, on := fig(batched)
		_, off := fig(unbatched)
		differs := false
		for i, s := range off {
			p, ok := s.At(20)
			if !ok || !(p.Mean > 0) || math.IsInf(p.Mean, 0) {
				t.Errorf("%s, NoCoalesce: %s at 20 nodes = %+v, want a finite speedup", name, s.Name, p)
			}
			if q, _ := on[i].At(20); q.Mean != p.Mean {
				differs = true
			}
		}
		if len(off) != 3 || !differs {
			t.Errorf("%s: NoCoalesce changed no point of %d series; the option does not reach the engines", name, len(off))
		}
	}
}

func TestAblations(t *testing.T) {
	a := AblationNNTree(Config{Runs: 1, Nodes: []int{8, 16}, Seed: 1})
	checkReport(t, a, "Ablation A", "tree", "sequential")
	b := AblationEigenPlacement(quickCfg())
	checkReport(t, b, "Ablation B", "steal", "random")
	c := AblationGroebnerScheduling(quickCfg())
	checkReport(t, c, "Ablation C", "central+ordered", "distributed+ordered")
	d := AblationNNModes(Config{Runs: 1, Nodes: []int{4}, Seed: 1})
	checkReport(t, d, "Ablation D", "unit", "sample", "hybrid")
	e := AblationSearchApps(Config{Runs: 1, Nodes: []int{4}, Seed: 1})
	checkReport(t, e, "Ablation E", "tsp-11", "polymer-8")
	f := AblationKnuthBendix(Config{Runs: 1, Nodes: []int{4}, Seed: 1})
	checkReport(t, f, "Ablation F", "knuth-bendix")
	g := AblationPortedMachines(Config{Runs: 1, Nodes: []int{4}, Seed: 1})
	checkReport(t, g, "Ablation G", "MANNA", "SP2", "Myrinet")
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Runs != 5 || len(c.Nodes) == 0 || c.Seed == 0 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestReportJSONExportCarriesSeries(t *testing.T) {
	r, series := Figure2(quickCfg())
	if len(r.Series) != len(series) {
		t.Fatalf("report carries %d series, figure returned %d", len(r.Series), len(series))
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID     string `json:"id"`
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				Nodes int     `json:"nodes"`
				Mean  float64 `json:"mean"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "Figure 2" || len(got.Series) != 2 {
		t.Fatalf("JSON round trip lost data: %s", b)
	}
	if len(got.Series[0].Points) != 2 || got.Series[0].Points[0].Nodes != 2 {
		t.Fatalf("points not exported: %s", b)
	}
	if got.Series[0].Points[1].Mean <= 1 {
		t.Fatalf("mean speedup not exported: %s", b)
	}
}
