package neural

import (
	"fmt"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
)

// BenchmarkNeuralTrainStep is one training sample through ParallelRun on
// a one-node machine: with no communication to model, the time is the
// forward dot products plus the two weight-update loops. start=copy
// copies the template into the scratch net first, as every training cell
// once did; start=table trains from the template tabulated over the sample
// (ParallelTrainFrom), so the forward pass is copied from the table and the
// updates read the template's rows. The bench/ neural probes cover only
// the forward pass.
func BenchmarkNeuralTrainStep(b *testing.B) {
	for _, u := range []int{200, 720} {
		net := Square(u, 1)
		xs := [][]float32{make([]float32, u)}
		ts := [][]float32{make([]float32, u)}
		for i := range xs[0] {
			xs[0][i] = float32(i) / float32(u)
			ts[0][i] = float32(u-i) / float32(u)
		}
		tab := Tabulate(net, xs)
		scratch := net.Clone()
		rt := simrt.New(earth.Config{Nodes: 1, Seed: 1})
		cfg := ParallelConfig{Train: true, Tree: true}
		b.Run(fmt.Sprintf("u=%d/start=copy", u), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				scratch.CopyFrom(net)
				ParallelRun(rt, scratch, xs, ts, cfg)
			}
		})
		b.Run(fmt.Sprintf("u=%d/start=table", u), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ParallelTrainFrom(rt, tab, scratch, xs, ts, cfg)
			}
		})
	}
}

// BenchmarkLayerForward is one layer of u units over u inputs, computed
// one Dot per unit (kernel=unit) and four units per pass (kernel=layer).
// The results are the same bits; the time is one dependent addition per
// weight against four independent chains.
func BenchmarkLayerForward(b *testing.B) {
	for _, u := range []int{200, 720} {
		net := Square(u, 1)
		in := make([]float32, u)
		for i := range in {
			in[i] = float32(i) / float32(u)
		}
		dst := make([]float32, u)
		b.Run(fmt.Sprintf("u=%d/kernel=unit", u), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range dst {
					dst[j] = UnitForward(net.W1[j], net.B1[j], in)
				}
			}
		})
		b.Run(fmt.Sprintf("u=%d/kernel=layer", u), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				LayerForward(dst, net.W1, net.B1, in)
			}
		})
	}
}

// BenchmarkNeuralClone720 is the copy of the shared 720-unit network that
// the harness makes when no pooled scratch net is idle (harness/inputs.go).
func BenchmarkNeuralClone720(b *testing.B) {
	net := Square(720, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Clone()
	}
}

// BenchmarkParallelForward is one Figure 7 cell — four samples through
// the 720-unit network on 20 simulated nodes — on the plain net and on
// the net tabulated over those samples.
func BenchmarkParallelForward(b *testing.B) {
	net := Square(720, 1)
	xs, _ := samples(720, 720, 4, 1)
	for _, bc := range []struct {
		name string
		net  *Net
	}{{"plain", net}, {"tabulated", Tabulate(net, xs)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ParallelRun(simrt.New(earth.Config{Nodes: 20, Seed: 1}), bc.net, xs, nil, ParallelConfig{Tree: true})
			}
		})
	}
}
