package sim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// drawOps are the rand.Rand methods the repository calls on a stream (and
// Int31n, which Intn and Shuffle reach), each as one draw from r whose
// result is folded into a word.
var drawOps = []func(r *rand.Rand) uint64{
	func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
	func(r *rand.Rand) uint64 { return r.Uint64() },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
	func(r *rand.Rand) uint64 { return uint64(r.Intn(1 << 40)) }, // Intn's 63-bit path
	func(r *rand.Rand) uint64 { return uint64(r.Int63n(1<<62 + 1)) },
	func(r *rand.Rand) uint64 { return uint64(r.Int31n(7)) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	func(r *rand.Rand) uint64 { return math.Float64bits(r.NormFloat64()) },
	func(r *rand.Rand) uint64 {
		h := uint64(0)
		for _, v := range r.Perm(5) {
			h = h*8 + uint64(v)
		}
		return h
	},
	func(r *rand.Rand) uint64 {
		s := []uint64{1, 2, 3, 4, 5, 6}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s[0]<<8 | s[5]
	},
	func(r *rand.Rand) uint64 {
		var b [11]byte // not a multiple of 7: Read keeps a partial word
		r.Read(b[:])
		h := uint64(0)
		for _, c := range b {
			h = h*131 + uint64(c)
		}
		return h
	},
}

// compareDraws draws from want and got in step, op ops[i%len(ops)] at step
// i, and fails t at the first difference. An op past len(drawOps) reseeds
// both with reseed(i).
func compareDraws(t *testing.T, seed int64, ops []byte, draws int, reseed func(i int) int64) {
	t.Helper()
	want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
	for i := 0; i < draws; i++ {
		op := int(ops[i%len(ops)]) % (len(drawOps) + 1)
		if op == len(drawOps) {
			s := reseed(i)
			want.Seed(s)
			got.Seed(s)
			continue
		}
		if w, g := drawOps[op](want), drawOps[op](got); w != g {
			t.Fatalf("seed %d, step %d (op %d): stream drew %#x, math/rand %#x", seed, i, op, g, w)
		}
	}
}

// TestStreamMatchesMathRand: a stream draws what rand.New(rand.NewSource)
// draws for the same seed, through every method, well past the shared
// prefix (three times its 607 words, so both cursors wrap repeatedly),
// and after a Seed mid-stream, including a Seed inside the prefix and a
// reseed to a seed whose prefix another stream is still reading.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -12345, math.MinInt64, math.MaxInt64, 1 << 31, 1<<31 - 1, 1<<40 + 7,
		5, 5 + (1<<31 - 1), // equal mod 2³¹−1: math/rand seeds them alike
		7*1_000_003 + 3}
	for _, seed := range seeds {
		for op := range drawOps {
			compareDraws(t, seed, []byte{byte(op)}, 3*rngLen+5, nil)
		}
		all := make([]byte, len(drawOps))
		for i := range all {
			all[i] = byte(i)
		}
		compareDraws(t, seed, all, 4*rngLen, nil)
		// Int63 only, reseeded at step 300 (inside the prefix) and at step
		// 1500 (past it), the second time to the seed the stream began with.
		ops := make([]byte, 2000)
		ops[300], ops[1500] = byte(len(drawOps)), byte(len(drawOps))
		compareDraws(t, seed, ops, len(ops), func(i int) int64 {
			if i == 300 {
				return seed ^ 0x5deece66d
			}
			return seed
		})
	}
}

// FuzzStream holds a stream to math/rand on any seed and any sequence of
// methods and reseeds.
func FuzzStream(f *testing.F) {
	f.Add(int64(0), []byte{0})
	f.Add(int64(-1), []byte{2, 6, 11, 1})
	f.Add(int64(math.MinInt64), []byte{8, 9, 10, 3, 4})
	f.Add(int64(1<<31+4), []byte{5, 7, 11, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) == 0 {
			ops = []byte{0}
		}
		compareDraws(t, seed, ops, 3*rngLen, func(i int) int64 { return seed + int64(i)*(1<<31-1) + int64(ops[0]) })
	})
}

// TestStreamConcurrentFirstUse: many goroutines open streams of one seed
// that no stream has used, at once, and each draws past the prefix; every
// stream draws math/rand's sequence. Run under -race it checks that the
// prefix table is published safely.
func TestStreamConcurrentFirstUse(t *testing.T) {
	const seed, streams, draws = 0x7ea11e5, 16, 2*rngLen + 3
	ref := rand.New(rand.NewSource(seed))
	want := make([]int64, draws)
	for i := range want {
		want[i] = ref.Int63()
	}
	prefixes[slotOf(seed)].Store(nil)
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([][]int64, streams)
	for g := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r := NewRand(seed)
			for range draws {
				got[g] = append(got[g], r.Int63())
			}
		}()
	}
	close(start)
	wg.Wait()
	for g, s := range got {
		if !slices.Equal(s, want) {
			t.Errorf("stream %d diverges from math/rand at draw %d", g, firstDiff(s, want))
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestStreamAllocatesOnlyPastPrefix: once a seed's prefix is in the table,
// a stream costs two small allocations (itself and its rand.Rand), its
// first 607 draws none, and the draw after them one copy of the prefix.
func TestStreamAllocatesOnlyPastPrefix(t *testing.T) {
	const seed = 42
	NewRand(seed)
	for _, c := range []struct{ draws, allocs int }{{0, 2}, {rngLen, 2}, {rngLen + 1, 3}, {3 * rngLen, 3}} {
		n := testing.AllocsPerRun(20, func() {
			r := NewRand(seed)
			for range c.draws {
				sinkInt63 += r.Int63()
			}
		})
		if n != float64(c.allocs) {
			t.Errorf("NewRand and %d draws: %v allocations, want %d", c.draws, n, c.allocs)
		}
	}
}

// TestPrefixTableHoldsLastSeed: a seed that collides with another in the
// table rebuilds its prefix and takes the slot; a stream already reading
// the evicted prefix is unaffected.
func TestPrefixTableHoldsLastSeed(t *testing.T) {
	a := int64(11)
	b := a + 1
	for slotOf(b) != slotOf(a) {
		b++
	}
	ra := NewRand(a)
	NewRand(b)
	if p := prefixes[slotOf(a)].Load(); p == nil || p.seed != b {
		t.Fatalf("slot %d does not hold seed %d", slotOf(a), b)
	}
	compare := rand.New(rand.NewSource(a))
	for i := range 2 * rngLen {
		if g, w := ra.Int63(), compare.Int63(); g != w {
			t.Fatalf("evicted seed's stream: draw %d = %d, want %d", i, g, w)
		}
	}
}

var sinkInt63 int64

// BenchmarkStream times a node's stream, on a seed whose prefix is in the
// table, against math/rand: new is the constructor and one draw,
// first607 the constructor and the prefix's 607 draws (more than most
// simulated nodes draw), draw one draw past the prefix.
func BenchmarkStream(b *testing.B) {
	const seed = 1_000_003
	kinds := []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"stream", NewRand},
		{"mathrand", func(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }},
	}
	for _, k := range kinds {
		b.Run(k.name+"/new", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkInt63 += k.new(seed).Int63()
			}
		})
		b.Run(k.name+"/first607", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				r := k.new(seed)
				for range rngLen {
					sinkInt63 += r.Int63()
				}
			}
		})
		b.Run(k.name+"/draw", func(b *testing.B) {
			r := k.new(seed)
			for range rngLen {
				r.Int63()
			}
			for b.Loop() {
				sinkInt63 += r.Int63()
			}
		})
	}
}
