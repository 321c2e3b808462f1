package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on changes speed under it, in phases that
// last minutes: the same binary on the same inputs has been seen to take
// 0.27 s a rep in one quarter of an hour and 0.42 s in the next, so no
// amount of repetition inside one run averages the change out. Every host
// time is therefore reported at reference speed: the benchmark times a
// fixed kernel of its own between the things it measures (every quarter
// second of timed reps, around every set-up, between probes) and scales a
// run's measurements by how fast the kernel ran during it. The kernel calls
// no code of the repo, so a change to the program under test cannot move
// it.
//
// The slow phases hit memory far harder than arithmetic — while finegrain
// and figs_nn reps took 1.5x as long, a shift/xor chain took 1.15x, a walk
// through an L2-sized table 1.3x, a walk through 32 MiB 1.35x and
// allocating a list 1.8x — so the kernel is half a walk through 256 KiB
// and half allocation. Over 25 minutes that covered both kinds of phase
// that blend left a residual spread of ~4 % on finegrain and figs_nn and
// ~7 % on live, where the unscaled times spread 17 %, 18 % and 8 %. (A
// 32 MiB walk in the blend did no better, and 32 MiB of live heap would
// have halved how often the collector runs under the measured code.)

// calibNominalS is what the kernel takes on the reference host (2 vCPU
// Xeon 2.1 GHz) in its fast phase. It only fixes the scale.
const calibNominalS = 0.0087

func walkTable(bits uint) []int32 {
	t := make([]int32, 1<<bits)
	for i := range t {
		t[i] = int32((i*1103515245 + 12345) & (len(t) - 1))
	}
	return t
}

var (
	calibTable = walkTable(16) // 256 KiB: stays in L2
	calibSink  int32
)

// calibCell is what the kernel's allocating part allocates: a small
// pointerful object, like a frame or a message.
type calibCell struct {
	next *calibCell
	pad  [3]uint64
}

// calibCells is how many cells one kernel run allocates; the measurement
// loop subtracts them from the allocation counts it reports.
const calibCells = 150_000

// walk follows the table's pseudo-random chain for n dependent steps.
func walk(t []int32, n int) int32 {
	mask := int32(len(t) - 1)
	j := int32(1)
	for i := 0; i < n; i++ {
		j = (t[j] ^ int32(i&7)) & mask
	}
	return j
}

// calibrate runs the kernel once and returns its duration in seconds.
func calibrate() float64 {
	t0 := time.Now()
	calibSink += walk(calibTable, 650_000)
	var head *calibCell
	for i := 0; i < calibCells; i++ {
		head = &calibCell{next: head}
		if i%64 == 0 {
			head.next = nil // keep the garbage in short chains
		}
	}
	calibSink += int32(head.pad[0])
	return time.Since(t0).Seconds()
}

// calibEveryS is how much timed work may pass between kernel samples.
const calibEveryS = 0.25

// sampleKernel appends three kernel runs to samples. It collects first,
// so that the kernel's allocating part starts from the same heap state
// every time and not in the middle of a cycle over the measured code's
// garbage; single runs still scatter by ~10 %, hence three and, in
// speed, the median of all of a run's samples.
func sampleKernel(samples []float64) []float64 {
	runtime.GC()
	return append(samples, calibrate(), calibrate(), calibrate())
}

// speed turns the kernel durations sampled around a measurement into the
// host's speed relative to the reference: below 1 the host was slower
// than the reference and measured times are scaled down. It uses the
// median sample: a single kernel run is easily caught by a collection
// the measured code left behind.
func speed(kernelS []float64) float64 { return calibNominalS / median(kernelS) }
