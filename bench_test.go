// Package repro's top-level benchmarks regenerate the paper's evaluation:
// one benchmark per table and figure (plus the ablations), each driving
// the experiment harness at a benchmark-sized configuration. Absolute
// times here are host times for running the *simulation*; the virtual
// times and speedups the experiments report are printed by
// cmd/paperfigs and recorded in EXPERIMENTS.md.
//
// Run everything:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/earthc"
	"earth/internal/eigen"
	"earth/internal/groebner"
	"earth/internal/harness"
	"earth/internal/neural"
	"earth/internal/poly"
	"earth/internal/rewrite"
	"earth/internal/search"
)

// benchCfg keeps each harness invocation bench-sized.
func benchCfg() harness.Config {
	return harness.Config{Runs: 1, Nodes: []int{2, 8, 16}, Seed: 1}
}

// --- Table 1: Eigenvalue workload characteristics -------------------------

func BenchmarkTable1Eigen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.Table1(benchCfg())
		if len(r.PaperVsMeasured) == 0 {
			b.Fatal("no comparisons")
		}
	}
}

// --- Figure 2: Eigenvalue speedups ----------------------------------------

func BenchmarkFigure2EigenSpeedups(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure2(benchCfg())
		if len(series) != 2 {
			b.Fatal("bad series")
		}
	}
}

// --- Table 2: Gröbner workload characteristics ----------------------------

func BenchmarkTable2Groebner(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.Table2(benchCfg())
		if len(r.Lines) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figure 4: Gröbner speedups (EARTH) ------------------------------------

func BenchmarkFigure4GroebnerSpeedups(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure4(cfg)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

// benchmarkFigure4Workers pins the host-parallel sweep: same cells, same
// deterministic aggregation, different pool size.
func benchmarkFigure4Workers(b *testing.B, workers int) {
	cfg := benchCfg()
	cfg.Workers = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure4(cfg)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkHarnessFigure4Workers1(b *testing.B) { benchmarkFigure4Workers(b, 1) }

func BenchmarkHarnessFigure4WorkersN(b *testing.B) {
	benchmarkFigure4Workers(b, runtime.GOMAXPROCS(0))
}

// benchmarkFigure4Shards pins the intra-simulation parallel path: the
// same sweep with each simulated machine split into conservative
// time-windowed shards. Results are byte-identical to shards=1; host
// time scales with available cores (no speedup on a 1-core host).
func benchmarkFigure4Shards(b *testing.B, shards int) {
	cfg := benchCfg()
	cfg.Shards = shards
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure4(cfg)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkHarnessFigure4Shards1(b *testing.B) { benchmarkFigure4Shards(b, 1) }

func BenchmarkHarnessFigure4ShardsN(b *testing.B) {
	benchmarkFigure4Shards(b, runtime.GOMAXPROCS(0))
}

// --- Figure 5: Gröbner under message-passing costs -------------------------

func BenchmarkFigure5GroebnerMPComparison(b *testing.B) {
	cfg := benchCfg()
	cfg.Nodes = []int{4, 8} // 4 cost models x inputs: keep it bench-sized
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, out := harness.Figure5(cfg)
		if len(out) != 3 {
			b.Fatal("bad output")
		}
	}
}

// --- Table 3: NN forward-pass characteristics ------------------------------

func BenchmarkTable3Neural(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.Table3(benchCfg())
		if len(r.Lines) != 3 {
			b.Fatal("bad table")
		}
	}
}

// --- Figures 7 and 8: NN speedups ------------------------------------------
//
// The NN figures run on the batched wire path by default (same-destination
// messages coalesce within an engine step); the Unbatched variants pin the
// pre-coalescer per-message path so the pair tracks the win side by side.

func BenchmarkFigure7NeuralForward(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure7(benchCfg())
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFigure7NeuralForwardUnbatched(b *testing.B) {
	cfg := benchCfg()
	cfg.NoCoalesce = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure7(cfg)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFigure8NeuralTraining(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure8(benchCfg())
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkFigure8NeuralTrainingUnbatched(b *testing.B) {
	cfg := benchCfg()
	cfg.NoCoalesce = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, series := harness.Figure8(cfg)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

// --- Ablations --------------------------------------------------------------

func BenchmarkAblationNNTreeComm(b *testing.B) {
	cfg := harness.Config{Runs: 1, Nodes: []int{8, 16}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.AblationNNTree(cfg)
	}
}

func BenchmarkAblationEigenPlacement(b *testing.B) {
	cfg := harness.Config{Runs: 1, Nodes: []int{8}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.AblationEigenPlacement(cfg)
	}
}

func BenchmarkAblationGroebnerScheduling(b *testing.B) {
	cfg := harness.Config{Runs: 1, Nodes: []int{8}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.AblationGroebnerScheduling(cfg)
	}
}

// --- Component microbenchmarks ----------------------------------------------

func BenchmarkRuntimeTokenRoundtrip(b *testing.B) {
	rt := simrt.New(earth.Config{Nodes: 8, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Run(func(c earth.Ctx) {
			for j := 0; j < 64; j++ {
				c.Token(16, func(earth.Ctx) {})
			}
		})
	}
}

func BenchmarkSturmCount1000(b *testing.B) {
	m := eigen.Toeplitz(1000, 2, -1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.CountBelow(1.5)
	}
}

func BenchmarkNormalFormModular(b *testing.B) {
	r := groebner.KatsuraRing(4, poly.GrLex{}, 32003)
	F := groebner.Katsura(4, r)
	s := poly.SPoly(F[0], F[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		poly.NormalForm(s, F)
	}
}

func BenchmarkBuchbergerKatsura3(b *testing.B) {
	r := groebner.KatsuraRing(3, poly.GrLex{}, 32003)
	F := groebner.Katsura(3, r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := groebner.Buchberger(F, groebner.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeuralForward200(b *testing.B) {
	net := neural.Square(200, 1)
	x := make([]float32, 200)
	for i := range x {
		x[i] = float32(i) / 200
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkNeuralTrainStep is one training sample through ParallelRun on
// a one-node machine: with no communication to model, the time is the
// forward dot products plus the two weight-update loops.
func BenchmarkNeuralTrainStep(b *testing.B) {
	for _, u := range []int{200, 720} {
		b.Run(fmt.Sprintf("u=%d", u), func(b *testing.B) {
			net := neural.Square(u, 1)
			xs := [][]float32{make([]float32, u)}
			ts := [][]float32{make([]float32, u)}
			for i := range xs[0] {
				xs[0][i] = float32(i) / float32(u)
				ts[0][i] = float32(u-i) / float32(u)
			}
			rt := simrt.New(earth.Config{Nodes: 1, Seed: 1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				neural.ParallelRun(rt, net, xs, ts, neural.ParallelConfig{Train: true, Tree: true, LR: 0.1})
			}
		})
	}
}

func BenchmarkNeuralClone720(b *testing.B) {
	net := neural.Square(720, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Clone()
	}
}

func BenchmarkBisect200(b *testing.B) {
	m := eigen.Clustered(200, 21, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eigen.Bisect(m, 1e-5)
	}
}

func BenchmarkAblationNNModes(b *testing.B) {
	cfg := harness.Config{Runs: 1, Nodes: []int{8}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.AblationNNModes(cfg)
	}
}

func BenchmarkAblationSearchApps(b *testing.B) {
	cfg := harness.Config{Runs: 1, Nodes: []int{8}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.AblationSearchApps(cfg)
	}
}

func BenchmarkSearchPolymerCount(b *testing.B) {
	rt := simrt.New(earth.Config{Nodes: 8, Seed: 1})
	p := &search.Polymer{Steps: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := search.Count(rt, p, search.CountConfig{SpawnDepth: 2})
		if res.Total != search.KnownSAW3D[5] {
			b.Fatalf("count = %d", res.Total)
		}
	}
}

func BenchmarkSearchTSPBranchAndBound(b *testing.B) {
	rt := simrt.New(earth.Config{Nodes: 8, Seed: 1})
	tsp := search.RandomTSP(9, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search.BranchAndBound(rt, tsp, search.BBConfig{})
	}
}

func BenchmarkEarthCReduce(b *testing.B) {
	rt := simrt.New(earth.Config{Nodes: 8, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Run(func(c earth.Ctx) {
			earthc.Reduce(c, 256, 8,
				func(c earth.Ctx, i int) int64 { return int64(i) },
				func(a, b int64) int64 { return a + b },
				func(c earth.Ctx, r int64) {})
		})
	}
}

func BenchmarkNeuralSampleParallel(b *testing.B) {
	xs := make([][]float32, 16)
	ts := make([][]float32, 16)
	for s := range xs {
		xs[s] = make([]float32, 40)
		ts[s] = make([]float32, 40)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := simrt.New(earth.Config{Nodes: 8, Seed: 1})
		neural.SampleParallelTrain(rt, neural.Square(40, 1), xs, ts,
			neural.SampleConfig{Epochs: 1, LR: 0.1})
	}
}

func BenchmarkAblationKnuthBendix(b *testing.B) {
	cfg := harness.Config{Runs: 1, Nodes: []int{8}, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		harness.AblationKnuthBendix(cfg)
	}
}

func BenchmarkKnuthBendixCompleteS3(b *testing.B) {
	sys, err := rewrite.NewSystem([][2]string{{"aa", ""}, {"bb", ""}, {"ababab", ""}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := rewrite.Complete(sys, rewrite.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
