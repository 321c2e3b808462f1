package main

// This file is the benchmark's contract: the workloads and metrics it
// measures, with units, direction and regression bounds. BENCHMARK.json at
// the repo root declares the same tables for the driver; bench_test.go
// fails if the two ever differ.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"figs_sym", "Table 1/2 + Figures 2/4/5: what a paperfigs user waits for; poly/groebner kernels do ~90% of the host work, the engine <5%"},
	{"figs_nn", "Table 3 + Figures 7/8: same harness pool, float neural kernels and large block moves; a poly gain must not move it"},
	{"finegrain", "zero-grain storm on simrt, 20 nodes, every option off: sim heap, manna, Frame sync and send/deliver/fire do all the host work"},
	{"features", "the storm once per optional feature (tracer, faults, crash, partition, coalesce, sanitize, shards=2): taxes on the non-clean paths show here"},
	{"live", "the storm plus eigen bisection on livert (goroutines and channels): the second engine behind the same earth.Ctx API"},
}

// metricDef declares one metric. Bound is the relative worsening of the
// median that counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics every workload reports and the driver gates.
// All are defined, and never zero, on all five workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"mallocs_per_rep", "count", "lower", 0.10},
	{"alloc_mb_per_rep", "MB", "lower", 0.10},
	{"sim_events", "count", "lower", 0.02},
}

// extraDefs are reported by every run (table and -json file) but are not
// in BENCHMARK.json: they are zero when all is well or undefined on some
// workloads, which the driver's relative bounds cannot express. Failed
// checks and reference drift reach the driver through the result line's
// correct/attempted/failed fields instead.
var extraDefs = []metricDef{
	{"failed_frac", "frac", "lower", 0},
	{"sim_drift_frac", "frac", "lower", 0},
	{"sim_elapsed_ms", "ms", "lower", 0},
	{"paper_err_pct", "%", "lower", 0},
}

// infoDefs are printed beside the rest and never judged: host time as the
// clock read it, and the host's speed relative to the reference while the
// workload ran (see calibrate.go).
var infoDefs = []metricDef{
	{Name: "host_raw_s", Unit: "s", Better: "lower"},
	{Name: "host_speed", Unit: "x", Better: "higher"},
}

// perLayer are the probe and traced-pass metrics; they carry no bound.
var perLayer = []metricDef{
	{Name: "sim.schedule_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.schedule_allocs", Unit: "count", Better: "lower"},
	{Name: "manna.send_ns", Unit: "ns", Better: "lower"},
	{Name: "manna.wiretime_ns", Unit: "ns", Better: "lower"},
	{Name: "manna.batchcost_ns", Unit: "ns", Better: "lower"},
	{Name: "earth.frame_dec_ns", Unit: "ns", Better: "lower"},
	{Name: "earth.frame_new_allocs", Unit: "count", Better: "lower"},
	{Name: "simrt.new_us", Unit: "us", Better: "lower"},
	{Name: "simrt.token_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.get_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.put_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.invoke_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.post_ns", Unit: "ns", Better: "lower"},
	{Name: "simrt.token_allocs", Unit: "count", Better: "lower"},
	{Name: "simrt.get_allocs", Unit: "count", Better: "lower"},
	{Name: "simrt.put_allocs", Unit: "count", Better: "lower"},
	{Name: "simrt.sync_allocs", Unit: "count", Better: "lower"},
	{Name: "simrt.invoke_allocs", Unit: "count", Better: "lower"},
	{Name: "simrt.post_allocs", Unit: "count", Better: "lower"},
	{Name: "simrt.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "simrt.steal_frac", Unit: "frac", Better: "higher"},
	{Name: "simrt.engine_self_frac", Unit: "frac", Better: "lower"},
	{Name: "simrt.tracer_ratio", Unit: "x", Better: "lower"},
	{Name: "simrt.faults_ratio", Unit: "x", Better: "lower"},
	{Name: "simrt.crash_ratio", Unit: "x", Better: "lower"},
	{Name: "simrt.partition_ratio", Unit: "x", Better: "lower"},
	{Name: "simrt.coalesce_ratio", Unit: "x", Better: "lower"},
	{Name: "simrt.sanitize_ratio", Unit: "x", Better: "lower"},
	{Name: "simrt.shards2_ratio", Unit: "x", Better: "lower"},
	{Name: "livert.new_us", Unit: "us", Better: "lower"},
	{Name: "livert.token_ns", Unit: "ns", Better: "lower"},
	{Name: "livert.get_ns", Unit: "ns", Better: "lower"},
	{Name: "livert.put_ns", Unit: "ns", Better: "lower"},
	{Name: "livert.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "livert.invoke_ns", Unit: "ns", Better: "lower"},
	{Name: "livert.post_ns", Unit: "ns", Better: "lower"},
	{Name: "livert.token_allocs", Unit: "count", Better: "lower"},
	{Name: "faults.next_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.chrome_ms_per_mevent", Unit: "ms", Better: "lower"},
	{Name: "critpath.analyze_ms_per_mevent", Unit: "ms", Better: "lower"},
	{Name: "poly.normalform_us", Unit: "us", Better: "lower"},
	{Name: "poly.normalform_allocs", Unit: "count", Better: "lower"},
	{Name: "poly.spoly_us", Unit: "us", Better: "lower"},
	{Name: "groebner.buchberger_k4_ms", Unit: "ms", Better: "lower"},
	{Name: "eigen.countbelow_us", Unit: "us", Better: "lower"},
	{Name: "eigen.bisect_ms", Unit: "ms", Better: "lower"},
	{Name: "neural.new_ms", Unit: "ms", Better: "lower"},
	{Name: "neural.forward_us", Unit: "us", Better: "lower"},
	{Name: "neural.unitforward_ns", Unit: "ns", Better: "lower"},
	{Name: "harness.table1_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.figure2_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.table2_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.figure4_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.figure5_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.table3_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.figure7_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.figure8_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.workers_speedup", Unit: "x", Better: "higher"},
	{Name: "host.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "host.gc_cycles_per_rep", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// value is one reported number. Timings carry the tail and sample count
// beside the median; only the median (Value) is ever gated.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1 and Q3 are the quartiles of the samples behind a timing median;
	// -compare calls a difference unresolved when they are further apart
	// than the metric's bound.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// Hi is the highest percentile with at least ten samples beyond it
	// (HiPct names it, e.g. 90); absent below twenty samples.
	Hi    float64 `json:"hi,omitempty"`
	HiPct float64 `json:"hi_pct,omitempty"`
	N     int     `json:"n,omitempty"`
}
