package main

import (
	"runtime"
	"time"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/harness"
	"earth/internal/manna"
	"earth/internal/neural"
	"earth/internal/obs"
	"earth/internal/poly"
	"earth/internal/sim"
)

// probeBatches and the batch length size every micro-probe: the median of
// probeBatches batches, each long enough to swamp timer resolution. Probe
// metrics carry no regression bound, so the batches are short enough for
// all of them to fit in one benchmark run.
const probeBatches = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// probe measures fn, which must perform n operations, at steady state: it
// grows n until one batch lasts at least batch, then reports the median
// ns and mallocs per operation over probeBatches batches.
func probe(batch time.Duration, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= batch || n >= 1<<28 {
			break
		}
		n = int(float64(n)*min(100, max(1.5, 1.2*float64(batch)/float64(d+1)))) + 1
	}
	ns := make([]float64, probeBatches)
	allocs := make([]float64, probeBatches)
	var before, after runtime.MemStats
	for i := range ns {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		ns[i] = float64(d) / float64(n)
		allocs[i] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return median(ns), median(allocs)
}

// opProgram returns a single-op-type EARTH program issuing ops operations
// of one kind from node 0, spread over the other nodes, with empty bodies:
// host time per operation is the engine's cost of that operation alone.
func opProgram(kind string, ops int) earth.ThreadBody {
	nop := func(earth.Ctx) {}
	cell := 7
	var got int
	return func(c earth.Ctx) {
		p := c.P()
		peer := func(i int) earth.NodeID { return earth.NodeID(1 + i%(p-1)) }
		switch kind {
		case "token":
			for i := 0; i < ops; i++ {
				c.Token(16, nop)
			}
		case "get":
			for i := 0; i < ops; i++ {
				earth.GetSyncI64(c, peer(i), &cell, &got, nil, 0)
			}
		case "put":
			for i := 0; i < ops; i++ {
				c.Put(peer(i), 64, func() {}, nil, 0)
			}
		case "sync":
			f := earth.NewFrame(1, 1, 1)
			f.SetThread(0, nop)
			f.InitSync(0, ops, 0, 0)
			for i := 0; i < ops; i++ {
				c.Sync(f, 0)
			}
		case "invoke":
			for i := 0; i < ops; i++ {
				c.Invoke(peer(i), 16, nop)
			}
		case "post":
			for i := 0; i < ops; i++ {
				c.Post(peer(i), 8, nop)
			}
		}
	}
}

var opKinds = []string{"token", "get", "put", "sync", "invoke", "post"}

// opsPerRun is how many operations each probe Run issues; one Run per
// probe iteration, on a machine built once.
const opsPerRun = 1000

// runProbes measures every probe-backed per-layer metric. batch is the
// length of one probe batch; seed feeds the probes' generated inputs.
// Times are reported at reference speed: the calibration kernel is
// sampled between probes, as often as between reps, and its median scales
// them all.
func runProbes(batch time.Duration, seed int64, out map[string]float64) {
	kernelS := sampleKernel(nil)
	sampled := time.Now()
	times := map[string]float64{}
	set := func(name string, v float64) {
		if unitOf[name] == "count" {
			out[name] = v
			return
		}
		times[name] = v
		if time.Since(sampled).Seconds() >= calibEveryS {
			kernelS = sampleKernel(kernelS)
			sampled = time.Now()
		}
	}
	defer func() {
		for name, v := range times {
			out[name] = v * speed(kernelS)
		}
	}()

	// sim: schedule one event and dispatch one, against a standing queue.
	schedule := func(depth int) (float64, float64) {
		e := sim.New()
		nop := func() {}
		for i := 0; i < depth; i++ {
			e.At(sim.Time(i+1), nop)
		}
		return probe(batch, func(n int) {
			for i := 0; i < n; i++ {
				e.At(e.Now()+sim.Time(depth), nop)
				e.Step()
			}
		})
	}
	ns, allocs := schedule(1024)
	set("sim.schedule_ns", ns)
	set("sim.schedule_allocs", allocs)
	ns, _ = schedule(65536)
	set("sim.schedule_deep_ns", ns)

	// manna: the network model's three cost functions.
	mc := manna.Default(20)
	mach := manna.New(mc)
	var acc sim.Time
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			acc += mach.Send(sim.Time(i)*sim.Microsecond, i%20, (i*7+3)%20, 64)
		}
		mach.Reset()
	})
	set("manna.send_ns", ns)
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			acc += mc.WireTime(i%20, (i*7+3)%20, 64)
		}
	})
	set("manna.wiretime_ns", ns)
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			acc += mc.BatchCost(i%20, (i*7+3)%20, 8, 512)
		}
	})
	set("manna.batchcost_ns", ns)
	sink = acc

	// earth.Frame: allocate, arm a two-signal slot, signal it to firing.
	fired := 0
	nopBody := func(earth.Ctx) {}
	ns, allocs = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			f := earth.NewFrame(0, 1, 1)
			f.SetThread(0, nopBody)
			f.InitSync(0, 2, 0, 0)
			f.Dec(0)
			if ok, _ := f.Dec(0); ok {
				fired++
			}
		}
	})
	sink = fired
	set("earth.frame_dec_ns", ns)
	set("earth.frame_new_allocs", allocs)

	// simrt and livert: machine construction and one probe per operation.
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink = simrt.New(earth.Config{Nodes: 20, Seed: seed, Shards: 1})
		}
	})
	set("simrt.new_us", ns/1e3)
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink = livert.New(earth.Config{Nodes: 8, Seed: seed})
		}
	})
	set("livert.new_us", ns/1e3)
	engines := []struct {
		name string
		rt   earth.Runtime
	}{
		{"simrt", simrt.New(earth.Config{Nodes: 20, Seed: seed, Shards: 1})},
		{"livert", livert.New(earth.Config{Nodes: 8, Seed: seed})},
	}
	for _, eng := range engines {
		for _, kind := range opKinds {
			prog := opProgram(kind, opsPerRun)
			ns, allocs = probe(batch, func(n int) {
				for i := 0; i < n; i++ {
					eng.rt.Run(prog)
				}
			})
			set(eng.name+"."+kind+"_ns", ns/opsPerRun)
			if eng.name == "simrt" || kind == "token" {
				set(eng.name+"."+kind+"_allocs", allocs/opsPerRun)
			}
		}
	}

	// faults: one verdict draw under the features workload's chaos plan.
	inj := faults.NewInjector(mustPlan("drop=0.02,dup=0.02,reorder=0.05,corrupt=0.01"), seed)
	drops := 0
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			drops += inj.Next(3).Drops
		}
		inj.Reset()
	})
	sink = drops
	set("faults.next_ns", ns)

	// obs and critpath: record, export and analyse a storm's event stream.
	rec := obs.NewRecorder()
	s := newStorm(20, 2000, seed)
	s.reset()
	st := simrt.New(earth.Config{Nodes: 20, Seed: seed, Shards: 1, Tracer: rec}).Run(s.main)
	events := rec.Events()
	mevents := float64(len(events)) / 1e6
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			rec.Reset()
			for _, e := range events {
				rec.Event(e)
			}
		}
	})
	set("obs.record_ns", ns/float64(len(events)))
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = obs.ChromeTrace(events)
		}
	})
	set("obs.chrome_ms_per_mevent", ns/1e6/mevents)
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink = critpath.Analyze(events, 20, st.Elapsed)
		}
	})
	set("critpath.analyze_ms_per_mevent", ns/1e6/mevents)

	// poly and groebner: the kernels behind Figures 4 and 5.
	k4 := groebner.InputByName("Katsura-4")
	sp := poly.SPoly(k4.F[0], k4.F[1])
	red := poly.NewReducer()
	ns, allocs = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = red.NormalForm(sp, k4.F)
		}
	})
	set("poly.normalform_us", ns/1e3)
	set("poly.normalform_allocs", allocs)
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink = poly.SPoly(k4.F[0], k4.F[1])
		}
	})
	set("poly.spoly_us", ns/1e3)
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = groebner.Buchberger(k4.F, k4.Opt)
		}
	})
	set("groebner.buchberger_k4_ms", ns/1e6)

	// eigen: the Sturm count behind Figure 2 and a whole bisection.
	toeplitz := eigen.Toeplitz(1000, 2, -1)
	below := 0
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			below += toeplitz.CountBelow(1.5)
		}
	})
	sink = below
	set("eigen.countbelow_us", ns/1e3)
	clustered := eigen.Clustered(200, 21, seed)
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink = eigen.Bisect(clustered, 1e-5)
		}
	})
	set("eigen.bisect_ms", ns/1e6)

	// neural: the kernels behind Figures 7 and 8.
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			sink = neural.Square(720, seed)
		}
	})
	set("neural.new_ms", ns/1e6)
	net := neural.Square(200, seed)
	x := make([]float32, 200)
	for i := range x {
		x[i] = float32(i) / 200
	}
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			_, sink = net.Forward(x)
		}
	})
	set("neural.forward_us", ns/1e3)
	var y float32
	ns, _ = probe(batch, func(n int) {
		for i := 0; i < n; i++ {
			y += neural.UnitForward(net.W1[i%200], net.B1[i%200], x)
		}
	})
	sink = y
	set("neural.unitforward_ns", ns)
}

// figure4Workers1MS times one Figure 4 sweep on a one-worker pool, the
// numerator of harness.workers_speedup.
func figure4Workers1MS(seed int64, sz sizes) float64 {
	kernelS := sampleKernel(nil)
	t0 := time.Now()
	harness.Figure4(harness.Config{Runs: 1, Seed: seed, Nodes: sz.figsNodes, Workers: 1})
	ms := time.Since(t0).Seconds() * 1e3
	return ms * speed(sampleKernel(kernelS))
}
