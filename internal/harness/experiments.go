package harness

import (
	"fmt"
	"strings"

	"earth/internal/faults"
)

// Experiment is one row of the experiment table.
type Experiment struct {
	// Name selects the row (paperfigs -exp, matched case-insensitively)
	// and names its determinism subtest.
	Name string
	// Group is a second -exp name that selects every row carrying it.
	Group string
	// Beyond marks the robustness and attribution sweeps that go beyond
	// the paper's evaluation section: selectable by name, not part of "all".
	Beyond bool
	Run    func(Config) *Report
}

// Experiments is the one list of experiments, in paper order: paperfigs
// (-exp, its usage text and its unknown-name error) and
// TestParallelSweepDeterminism both read it, so adding an experiment is
// adding a row here. chaos is the fault plan of the Chaos row (nil or
// empty: DefaultFaultPlan), the one experiment input outside Config.
func Experiments(chaos *faults.Plan) []Experiment {
	const abl = "ablations"
	return []Experiment{
		{Name: "Table1", Run: Table1},
		{Name: "Figure2", Run: reportOf(Figure2)},
		{Name: "Table2", Run: Table2},
		{Name: "Figure4", Run: reportOf(Figure4)},
		{Name: "Figure5", Run: reportOf(Figure5)},
		{Name: "Table3", Run: Table3},
		{Name: "Figure7", Run: reportOf(Figure7)},
		{Name: "Figure8", Run: reportOf(Figure8)},
		{Name: "AblationNNTree", Group: abl, Run: AblationNNTree},
		{Name: "AblationEigenPlacement", Group: abl, Run: AblationEigenPlacement},
		{Name: "AblationGroebnerScheduling", Group: abl, Run: AblationGroebnerScheduling},
		{Name: "AblationNNModes", Group: abl, Run: AblationNNModes},
		{Name: "AblationSearchApps", Group: abl, Run: AblationSearchApps},
		{Name: "AblationKnuthBendix", Group: abl, Run: AblationKnuthBendix},
		{Name: "AblationPortedMachines", Group: abl, Run: AblationPortedMachines},
		{Name: "Chaos", Beyond: true, Run: func(cfg Config) *Report { return FaultSweep(cfg, chaos) }},
		{Name: "Crash", Beyond: true, Run: CrashSweep},
		{Name: "Partition", Beyond: true, Run: PartitionSweep},
		{Name: "Overhead", Beyond: true, Run: Overhead},
	}
}

// reportOf adapts a figure that also returns its series to a table row.
func reportOf[T any](f func(Config) (*Report, T)) func(Config) *Report {
	return func(cfg Config) *Report { r, _ := f(cfg); return r }
}

// ExperimentNames lists what Select accepts, in table order: "all",
// then every row's lower-cased name, each group's name ahead of its
// first row.
func ExperimentNames() []string {
	names := []string{"all"}
	group := ""
	for _, e := range Experiments(nil) {
		if e.Group != "" && e.Group != group {
			names = append(names, e.Group)
		}
		group = e.Group
		names = append(names, strings.ToLower(e.Name))
	}
	return names
}

// Select resolves an -exp name to table rows: "all" (every row that is
// not Beyond), a group name, or one row's name.
func Select(name string, chaos *faults.Plan) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Experiments(chaos) {
		if name == "all" && !e.Beyond || e.Group != "" && name == e.Group || strings.EqualFold(name, e.Name) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(ExperimentNames(), "|"))
	}
	return out, nil
}
