package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// pinnedReports holds, per row of Experiments, the SHA-256 of the row's
// rendering (Report text followed by the Series JSON) at Runs: 2,
// Nodes: {1,2,4}, Seed: 1, as produced at commit 749a14e — the last one
// before the application packages lost their unused options. A change
// that moves a simulated byte in any application fails the subtest that
// names the experiment.
var pinnedReports = map[string]string{
	"Table1":                     "d9587b678d262d37ce5fca8bd47e2a482135ed88a48e20be6092333d1f50524e",
	"Figure2":                    "d952069e9164d8fe427b1ea5f44d10646c37a4e46e3a2fc8f875fad1c1b4c471",
	"Table2":                     "e98e26fbba050435bcb4a6f325b684c679cb2ebac21e7e7ae4a08cf2fdf3015a",
	"Figure4":                    "f676bf87d09e174f9a32e576c57c710ed3c0aeced923c824d614f2d7b37f44a6",
	"Figure5":                    "4d520ab987d53fe2b0de075d93857ab511f8b91077c32b35b49ca755e0494b69",
	"Table3":                     "b8fdd8ed948a815139ec40f72fc09dfac0eb346be75614ff3f45320cc37f787a",
	"Figure7":                    "fdadd61551230e2b00b99d54f399e6dc842dfb914d61caad150969697aadd1a8",
	"Figure8":                    "72457b3a0f6b9dba5ae5a103d4549e571228087de0d66bd2a071aef52dfa337a",
	"AblationNNTree":             "a234220af439088fda9d394149628b2d09b632d373069d71f07aefb0e4d26131",
	"AblationEigenPlacement":     "5aee6901fd6da4864cec19cbb06c6cff0bfd8f8a9f6ed15cb60e8971584493bc",
	"AblationGroebnerScheduling": "f341ed9125aeed4ccfc9b4598fdd0b0a46688a659d99e30d2366dc69af64e1dd",
	"AblationNNModes":            "289f0fbf0a87a880a8ce5fd438bc0d6be2c4f007684bc7499a033ebb3b68b112",
	"AblationSearchApps":         "2969a6910f9f10d66ea246997cef452700be2a02128df4cb482626ee6aa57cf4",
	"AblationKnuthBendix":        "a7515df29438e4a091346b7930f6f23d26485b7276ec52740473969c8e816566",
	"AblationPortedMachines":     "d80bff258480d7c182d4347bdc065aae101a1373bcc094a3e50e3ae3352be5a0",
	"Chaos":                      "9460525b5241152483f464013fc578f474a8329d9e7de483f3b72208c7354580",
	"Crash":                      "2da309b0d681b85a6d69a711d3ad6e0f825382aec05343157b5ff6530b563f2f",
	"Partition":                  "6b335734025d962e36de33124bb7eed621eadaf1f9e8ef804bf4a7fba3083d4a",
	"Overhead":                   "15da00ade2811ec110045e925fa6dcbb2d1f6d7ba5751ad89d2e2e84fb46fac2",
}

// TestParallelSweepDeterminism is the safety net for the host-parallel
// sweeps and for the applications under them: for every row of the
// experiment table, the Report text and the Series JSON at Workers=1 must
// hash to the row's pinnedReports digest, the rendering produced with a
// multi-worker pool must be byte-identical to it, and a repeated pooled
// invocation must reproduce it again. Run under -race this also checks
// the cells really are independent.
func TestParallelSweepDeterminism(t *testing.T) {
	serial := Config{Runs: 2, Nodes: []int{1, 2, 4}, Seed: 1, Workers: 1}
	pooled := serial
	pooled.Workers = 4

	render := func(t *testing.T, r *Report) string {
		series, err := json.Marshal(r.Series)
		if err != nil {
			t.Fatal(err)
		}
		return r.String() + string(series)
	}
	exps := Experiments(nil)
	if len(exps) != len(pinnedReports) {
		t.Errorf("%d experiments but %d pinned digests", len(exps), len(pinnedReports))
	}
	for _, e := range exps {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			want := render(t, e.Run(serial))
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); got != pinnedReports[e.Name] {
				t.Errorf("simulated bytes moved: digest %s, pinned %s\n%s", got, pinnedReports[e.Name], want)
			}
			if got := render(t, e.Run(pooled)); got != want {
				t.Errorf("report diverges from Workers=1:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", want, got)
			}
			if again := render(t, e.Run(pooled)); again != want {
				t.Errorf("repeated pooled run diverges:\n--- workers=1 ---\n%s\n--- again ---\n%s", want, again)
			}
		})
	}
}
