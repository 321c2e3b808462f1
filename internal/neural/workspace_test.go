package neural

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
)

// listedWorkspaces returns a copy of the workspaces free list.
func listedWorkspaces() []*nnode {
	workspaces.mu.Lock()
	defer workspaces.mu.Unlock()
	return slices.Clone(workspaces.free)
}

// emptyWorkspaces drops every listed workspace, so the next run starts as
// the first run of a process does.
func emptyWorkspaces() {
	workspaces.mu.Lock()
	workspaces.free = nil
	workspaces.mu.Unlock()
}

// TestNeuralAllocBudget caps what one sample of a unit-parallel run on 20
// simrt nodes, 200 units per layer, may allocate, everything included —
// the output row, the messages, the engine's frames, the run's fixed
// costs spread over its four samples — on a machine and a workspace list
// warm from an earlier run, as a sweep's cells are: a forward run on a
// tabulated net (ParallelRun) and a training run from it into a scratch
// net (ParallelTrainFrom). Node workspaces kept between runs, an outbox
// per node, messages that carry no copy and the layout built once per
// shape brought the forward run from 73 KB in 353 mallocs per sample to
// 9.4 KB in 160 (training: 116 KB in 508 to 13.7 KB in 258, also under
// -race); a snapshot allocated per broadcast again makes them 27 KB in
// 180 and 58 KB in 298, over both ceilings of both runs.
func TestNeuralAllocBudget(t *testing.T) {
	const width, nodes, count = 200, 20, 4
	net := Square(width, 1)
	xs, ts := samples(width, width, count, 2)
	tab := Tabulate(net, xs)
	scratch := net.Clone()
	for _, c := range []struct {
		name           string
		run            func(rt earth.Runtime) *ParallelResult
		bytes, mallocs float64
	}{
		{"ParallelRun", func(rt earth.Runtime) *ParallelResult {
			return ParallelRun(rt, tab, xs, nil, ParallelConfig{Tree: true})
		}, 10500, 170},
		{"ParallelTrainFrom", func(rt earth.Runtime) *ParallelResult {
			return ParallelTrainFrom(rt, tab, scratch, xs, ts, ParallelConfig{Train: true, Tree: true})
		}, 15000, 270},
	} {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 1})
		c.run(rt)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			c.run(rt)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs * count)
		mallocs := testing.AllocsPerRun(runs, func() { c.run(rt) }) / count
		if bytes > c.bytes || mallocs > c.mallocs {
			t.Errorf("%s: a sample allocates %.0f bytes in %.1f mallocs, budget %.0f bytes, %.0f mallocs",
				c.name, bytes, mallocs, c.bytes, c.mallocs)
		} else {
			t.Logf("%s: %.0f bytes, %.1f mallocs per sample", c.name, bytes, mallocs)
		}
	}
}

// TestPooledNeuralWorkspacesPinNothing: after runs of every kind — forward
// and training, tree and sequential, plain and from a tabulated start, on
// either engine — every workspace on the free list refers to no net, no
// frame and no closure, holds no other buffer in childB, and shares no
// storage with a sample, a target or an output; and the list, emptied
// first, holds as many workspaces as were once in use at the same time.
func TestPooledNeuralWorkspacesPinNothing(t *testing.T) {
	const width = 16
	net := Square(width, 1)
	xs, ts := samples(width, width, 3, 2)
	tab := Tabulate(net, xs)
	emptyWorkspaces()
	var results []*ParallelResult
	for _, c := range []struct {
		name string
		run  func() *ParallelResult
		peak int
	}{
		{"forward on simrt, 5 nodes", func() *ParallelResult {
			return ParallelRun(simrt.New(earth.Config{Nodes: 5, Seed: 1}), tab, xs, nil, ParallelConfig{Tree: true})
		}, 5},
		{"sequential training on simrt, 3 nodes", func() *ParallelResult {
			return ParallelRun(simrt.New(earth.Config{Nodes: 3, Seed: 1}), net.Clone(), xs, ts, ParallelConfig{Train: true})
		}, 5},
		{"training from the table on livert, 7 nodes", func() *ParallelResult {
			return ParallelTrainFrom(livert.New(earth.Config{Nodes: 7, Seed: 1}), tab, net.Clone(), xs, ts, ParallelConfig{Train: true, Tree: true})
		}, 7},
		{"tree training on simrt, 4 nodes", func() *ParallelResult {
			return ParallelRun(simrt.New(earth.Config{Nodes: 4, Seed: 1}), net.Clone(), xs, ts, ParallelConfig{Train: true, Tree: true})
		}, 7},
	} {
		results = append(results, c.run())
		free := listedWorkspaces()
		if len(free) != c.peak {
			t.Errorf("after %s: %d workspaces on the free list, want %d", c.name, len(free), c.peak)
		}
		data := slices.Concat(xs, ts)
		for _, res := range results {
			data = append(data, res.Outputs...)
		}
		for i, ws := range free {
			if what := pinned(reflect.ValueOf(*ws), "nnode", data); what != "" {
				t.Errorf("after %s: listed workspace %d %s", c.name, i, what)
			}
		}
	}
}

// pinned names what v, a listed workspace or a part of one called name,
// still refers to: a pointer, a closure, a slice stored in a slice
// (childB's entries), or a float buffer sharing storage with one of data.
// It returns "" when v refers to nothing but its own buffers.
func pinned(v reflect.Value, name string, data [][]float32) string {
	switch v.Kind() {
	case reflect.Pointer, reflect.Func, reflect.Interface, reflect.Map, reflect.Chan, reflect.UnsafePointer:
		if !v.IsZero() {
			return "refers to something through " + name
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if what := pinned(v.Field(i), name+"."+v.Type().Field(i).Name, data); what != "" {
				return what
			}
		}
	case reflect.Array:
		for j := range v.Len() {
			if what := pinned(v.Index(j), fmt.Sprintf("%s[%d]", name, j), data); what != "" {
				return what
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float32 {
			if overlaps(v.Pointer(), v.Cap(), data) {
				return "shares " + name + " with the run's data"
			}
			return ""
		}
		v = v.Slice(0, v.Cap())
		for j := range v.Len() {
			if !v.Index(j).IsNil() {
				return fmt.Sprintf("holds a buffer in %s[%d]", name, j)
			}
		}
	}
	return ""
}

// overlaps reports whether the n float32s at p meet the storage, to its
// capacity, of any of data.
func overlaps(p uintptr, n int, data [][]float32) bool {
	hi := p + uintptr(n)*4
	for _, d := range data {
		if cap(d) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
		if n > 0 && lo < hi && p < lo+uintptr(cap(d))*4 {
			return true
		}
	}
	return false
}

// TestReusedWorkspacesMatchFresh: a run on workspaces an earlier run left
// — one of another shape (720 units on 20 nodes before 80 on 3), or a
// faulted NN-forward run, chaos or crash — gives the same outputs, loss,
// statistics and trained weights, bit for bit, as the same run on fresh
// workspaces, forward and training, tree and sequential.
func TestReusedWorkspacesMatchFresh(t *testing.T) {
	big := Square(720, 4)
	bigXs, bigTs := samples(720, 720, 2, 5)
	small := Square(80, 4)
	xs, ts := samples(80, 80, 3, 6)
	nn := Square(24, 1)
	nnXs, _ := samples(24, 24, 4, 7)
	chaos, err := faults.Parse("drop=0.05,dup=0.02,reorder=0.1")
	if err != nil {
		t.Fatal(err)
	}
	crash, err := faults.Parse("crash=2@100us")
	if err != nil {
		t.Fatal(err)
	}
	before := []struct {
		name string
		run  func()
	}{
		{"720 units on 20 nodes", func() {
			ParallelRun(simrt.New(earth.Config{Nodes: 20, Seed: 3}), big.Clone(), bigXs, bigTs, ParallelConfig{Train: true, Tree: true})
		}},
		{"a chaos NN-forward run", func() {
			ParallelRun(simrt.New(earth.Config{Nodes: 6, Seed: 3, Faults: chaos}), nn, nnXs, nil, ParallelConfig{Tree: true})
		}},
		{"a crash NN-forward run", func() {
			ParallelRun(simrt.New(earth.Config{Nodes: 6, Seed: 3, Faults: crash}), nn, nnXs, nil, ParallelConfig{Tree: true})
		}},
	}
	type outcome struct {
		res *ParallelResult
		net *Net
	}
	runs := []struct {
		name string
		run  func() outcome
	}{
		{"forward", func() outcome {
			return outcome{ParallelRun(simrt.New(earth.Config{Nodes: 3, Seed: 1}), small, xs, nil, ParallelConfig{Tree: true}), nil}
		}},
		{"tree training", func() outcome {
			n := small.Clone()
			return outcome{ParallelRun(simrt.New(earth.Config{Nodes: 3, Seed: 1}), n, xs, ts, ParallelConfig{Train: true, Tree: true}), n}
		}},
		{"sequential training", func() outcome {
			n := small.Clone()
			return outcome{ParallelRun(simrt.New(earth.Config{Nodes: 3, Seed: 1}), n, xs, ts, ParallelConfig{Train: true}), n}
		}},
		{"training from the table", func() outcome {
			n := Square(80, 9)
			return outcome{ParallelTrainFrom(simrt.New(earth.Config{Nodes: 3, Seed: 1}), Tabulate(small, xs), n, xs, ts, ParallelConfig{Train: true, Tree: true}), n}
		}},
	}
	for _, r := range runs {
		emptyWorkspaces()
		want := r.run()
		for _, b := range before {
			emptyWorkspaces()
			b.run()
			got := r.run()
			if !sameBits(got.res.Outputs, want.res.Outputs) || !reflect.DeepEqual(got.res, want.res) ||
				want.net != nil && !sameWeights(got.net, want.net) {
				t.Errorf("%s after %s: differs from the run on fresh workspaces: loss %v vs %v, elapsed %v vs %v",
					r.name, b.name, got.res.Loss, want.res.Loss, got.res.Stats.Elapsed, want.res.Stats.Elapsed)
			}
		}
	}
}
