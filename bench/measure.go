package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
	"unsafe"
)

// quantile returns the p-quantile of sorted xs by the exclusive method
// (position p*(n+1), clamped), which is what Python's
// statistics.quantiles uses by default — the driver's arithmetic.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timing summarises samples of seconds, each multiplied by scale: median,
// quartiles and the highest percentile that still has at least ten
// samples beyond it.
func timing(samples []float64, scale float64) value {
	s := slices.Clone(samples)
	for i := range s {
		s[i] *= scale
	}
	sort.Float64s(s)
	v := value{Value: quantile(s, 0.5), Unit: "s", Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	if n := len(s); n >= 20 {
		v.Hi, v.HiPct = s[n-11], 100*float64(n-10)/float64(n)
	}
	return v
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measurement accumulates one workload's timed reps across slices.
type measurement struct {
	r         runner
	rawS      []float64 // host seconds of each timed rep, as the clock read them
	totalS    float64   // their sum
	kernelS   []float64 // calibration kernel runs interleaved with the reps
	nextCalib float64   // totalS at which the kernel is next due
	first     repResult // the first timed rep: sizes, simulated values, paper quantities
	checks    checks    // every rep's checks plus rep-to-rep identity
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcS, cpuS float64
	heapInuse uint64 // max over slice boundaries
}

// speed is the host's speed over the measurement relative to the
// reference (see calibrate.go); host times are multiplied by it.
func (m *measurement) speed() float64 { return speed(m.kernelS) }

// slice runs timed reps, one at a time (a closed loop), until the
// workload's timed reps so far add up to target seconds; the first slice
// runs at least one. The target is cumulative so that a workload whose
// rep is longer than a slice still stops on time. Allocation and GC
// counters cover exactly the timed reps: they are read at the slice's
// edges, and the caller's runtime.GC() between slices falls outside them.
func (m *measurement) slice(target float64, tr *tracer) {
	if len(m.rawS) > 0 && m.totalS >= target {
		return
	}
	kernelsBefore := len(m.kernelS)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPU()
	for {
		if tr != nil {
			tr.rep = len(m.rawS)
		}
		var res repResult
		t0 := time.Now()
		tr.call("rep", func() { res = m.r.rep(tr) })
		raw := time.Since(t0).Seconds()
		m.rawS = append(m.rawS, raw)
		m.totalS += raw
		if m.totalS >= m.nextCalib {
			m.kernelS = sampleKernel(m.kernelS)
			m.nextCalib = m.totalS + calibEveryS
		}
		m.checks.merge(res.checks)
		if len(m.rawS) == 1 {
			m.first = res
		} else if res.values != nil {
			m.checks.expect(slices.Equal(res.values, m.first.values) && res.work == m.first.work,
				"rep %d: simulated statistics differ from rep 0", len(m.rawS)-1)
		}
		if m.totalS >= target {
			break
		}
	}
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&after)
	// Take the allocations of the kernel runs inside the window back out.
	kernels := uint64(len(m.kernelS) - kernelsBefore)
	m.mallocs += after.Mallocs - before.Mallocs - kernels*calibCells
	m.bytes += after.TotalAlloc - before.TotalAlloc - kernels*calibCells*uint64(unsafe.Sizeof(calibCell{}))
	m.gcCycles += after.NumGC - before.NumGC
	m.gcS += gc1 - gc0
	m.cpuS += cpu1 - cpu0
	m.heapInuse = max(m.heapInuse, before.HeapInuse, after.HeapInuse)
}

// measure times the workload for seconds, in rounds slices with a
// collection before each, so that no slice starts on the garbage of
// whatever ran before it.
func (m *measurement) measure(seconds float64, rounds int, tr *tracer) {
	for round := 1; round <= rounds; round++ {
		runtime.GC()
		m.slice(seconds*float64(round)/float64(rounds), tr)
	}
}
