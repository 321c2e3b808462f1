package eigen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestToeplitzExactEigenvalues(t *testing.T) {
	const n = 100
	m := Toeplitz(n, 2, -1)
	tol := 1e-10
	res := Bisect(m, tol)
	want := ToeplitzEigenvalues(n, 2, -1)
	if len(res.Eigenvalues) != n {
		t.Fatalf("found %d eigenvalues, want %d", len(res.Eigenvalues), n)
	}
	for i := range want {
		if math.Abs(res.Eigenvalues[i]-want[i]) > 2*tol {
			t.Fatalf("lambda[%d] = %.12f, want %.12f", i, res.Eigenvalues[i], want[i])
		}
	}
}

func TestGershgorinContainsSpectrum(t *testing.T) {
	m := Toeplitz(50, 2, -1)
	lo, hi := m.Gershgorin()
	for _, ev := range ToeplitzEigenvalues(50, 2, -1) {
		if ev < lo || ev > hi {
			t.Fatalf("eigenvalue %v outside Gershgorin [%v,%v]", ev, lo, hi)
		}
	}
}

func TestCountBelowProperties(t *testing.T) {
	m := Random(60, 3)
	lo, hi := m.Gershgorin()
	if got := m.CountBelow(lo - 1); got != 0 {
		t.Fatalf("CountBelow(lo-1) = %d", got)
	}
	if got := m.CountBelow(hi + 1); got != m.N() {
		t.Fatalf("CountBelow(hi+1) = %d, want %d", got, m.N())
	}
	// Monotonicity.
	rng := rand.New(rand.NewSource(4))
	f := func(aRaw, bRaw uint16) bool {
		a := lo + (hi-lo)*float64(aRaw)/65535
		b := lo + (hi-lo)*float64(bRaw)/65535
		if a > b {
			a, b = b, a
		}
		return m.CountBelow(a) <= m.CountBelow(b)
	}
	if err := quick.Check(f, &quick.Config{Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestCountBelowAgainstExactSpectrum(t *testing.T) {
	const n = 40
	m := Toeplitz(n, 0, 1)
	ev := ToeplitzEigenvalues(n, 0, 1)
	for _, x := range []float64{-3, -1.5, -0.1, 0, 0.3, 1.99, 2.5} {
		want := sort.SearchFloat64s(ev, x) // #ev < x (no exact hits for these x)
		if got := m.CountBelow(x); got != want {
			t.Fatalf("CountBelow(%v) = %d, want %d", x, got, want)
		}
	}
}

func TestBisectMultiplicityViaClusters(t *testing.T) {
	// Wilkinson W21+ has eigenvalue pairs agreeing to ~1e-10: with a loose
	// tolerance they resolve as one interval of count 2.
	m := Wilkinson(21)
	res := Bisect(m, 1e-6)
	if len(res.Eigenvalues) != 21 {
		t.Fatalf("found %d eigenvalues, want 21 (multiplicity lost)", len(res.Eigenvalues))
	}
	// The top pairs should be nearly equal.
	top := res.Eigenvalues[len(res.Eigenvalues)-2:]
	if math.Abs(top[0]-top[1]) > 1e-5 {
		t.Fatalf("top cluster not detected: %v", top)
	}
}

func TestBisectValidation(t *testing.T) {
	m := Toeplitz(4, 1, 1)
	for _, f := range []func(){
		func() { Bisect(m, 0) },
		func() { Bisect(&SymTridiag{D: []float64{1}, E: nil}, 1e-3) },
		func() { Bisect(&SymTridiag{}, 1e-3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEigenvalueCountAlwaysNProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		n := 5 + rng.Intn(40)
		m := Random(n, rng.Int63())
		res := Bisect(m, 1e-6)
		if len(res.Eigenvalues) != n {
			t.Fatalf("n=%d: found %d eigenvalues", n, len(res.Eigenvalues))
		}
		if !sort.Float64sAreSorted(res.Eigenvalues) {
			t.Fatal("eigenvalues not sorted")
		}
	}
}

func TestTaskAccounting(t *testing.T) {
	m := Random(64, 7)
	res := Bisect(m, 1e-4)
	if res.Tasks <= 0 || res.SturmCounts <= 0 {
		t.Fatalf("tasks=%d sturms=%d", res.Tasks, res.SturmCounts)
	}
	// Every internal task performs exactly one Sturm count; leaves none.
	leavesN := 0
	for _, c := range res.DepthHist {
		leavesN += c
	}
	if res.SturmCounts != res.Tasks-leavesN+2 { // +2 for the root bounds
		t.Fatalf("sturm accounting: tasks=%d leaves=%d sturms=%d", res.Tasks, leavesN, res.SturmCounts)
	}
	if res.MinDepth < 1 || res.MaxDepth < res.MinDepth {
		t.Fatalf("depths [%d,%d]", res.MinDepth, res.MaxDepth)
	}
	leaves := 0
	for _, c := range res.DepthHist {
		leaves += c
	}
	if leaves == 0 {
		t.Fatal("no leaves recorded")
	}
}

// TestStepChildrenByValue: a bisection step resolves a narrow or empty
// interval as a leaf and splits a wide one at its midpoint into the
// halves that hold eigenvalues, lower half first, with their counts and
// depths; one Sturm count per split, none per leaf; and no step
// allocates.
func TestStepChildrenByValue(t *testing.T) {
	m := Random(64, 7)
	count := m.CountBelow
	root := rootInterval(m, count)
	half := 0.5 * (root.Lo + root.Hi)
	var res Result
	for _, c := range []struct {
		name string
		iv   Interval
		leaf bool
	}{
		{"root", root, false},
		{"lower half", Interval{Lo: root.Lo, Hi: half, NLo: root.NLo, NHi: count(half), Depth: 1}, false},
		{"narrow", Interval{Lo: 0, Hi: 1e-9, NLo: count(0), NHi: count(0) + 1}, true},
		{"empty", Interval{Lo: 0, Hi: 1, NLo: 3, NHi: 3}, true},
	} {
		before := res.SturmCounts
		leaf, kids, n := step(count, c.iv, 1e-6, &res)
		if leaf != c.leaf {
			t.Fatalf("%s: leaf=%v, want %v", c.name, leaf, c.leaf)
		}
		if leaf {
			if n != 0 || res.SturmCounts != before {
				t.Fatalf("%s: a leaf returned %d children and took %d counts", c.name, n, res.SturmCounts-before)
			}
			continue
		}
		if res.SturmCounts != before+1 {
			t.Fatalf("%s: a split took %d counts, want 1", c.name, res.SturmCounts-before)
		}
		mid := 0.5 * (c.iv.Lo + c.iv.Hi)
		nmid := count(mid)
		var want []Interval
		if nmid > c.iv.NLo {
			want = append(want, Interval{Lo: c.iv.Lo, Hi: mid, NLo: c.iv.NLo, NHi: nmid, Depth: c.iv.Depth + 1})
		}
		if c.iv.NHi > nmid {
			want = append(want, Interval{Lo: mid, Hi: c.iv.Hi, NLo: nmid, NHi: c.iv.NHi, Depth: c.iv.Depth + 1})
		}
		if n != len(want) || n == 0 {
			t.Fatalf("%s: %d children, want %d (and at least one)", c.name, n, len(want))
		}
		for k := range n {
			if kids[k] != want[k] {
				t.Fatalf("%s: child %d is %+v, want %+v", c.name, k, kids[k], want[k])
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { step(count, root, 1e-6, &res) }); allocs != 0 {
		t.Errorf("a step allocates %v times", allocs)
	}
}

func TestClusteredGeneratorShape(t *testing.T) {
	m := Clustered(200, 21, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Bisect(m, 1e-5)
	if len(res.Eigenvalues) != 200 {
		t.Fatalf("found %d eigenvalues", len(res.Eigenvalues))
	}
	// Clustering: strictly fewer leaves than eigenvalues.
	leaves := 0
	for _, c := range res.DepthHist {
		leaves += c
	}
	if leaves >= 200 {
		t.Fatalf("no clustering: %d leaves for 200 eigenvalues", leaves)
	}
}

func TestWilkinsonKnownLargestEigenvalue(t *testing.T) {
	// W21+ largest eigenvalue is about 10.746194.
	res := Bisect(Wilkinson(21), 1e-8)
	got := res.Eigenvalues[len(res.Eigenvalues)-1]
	if math.Abs(got-10.746194) > 1e-5 {
		t.Fatalf("largest W21+ eigenvalue = %v, want ~10.746194", got)
	}
}

// Random returns a matrix with uniform random entries in [-1,1); its
// spectrum is mostly well separated.
func Random(n int, seed int64) *SymTridiag {
	rng := rand.New(rand.NewSource(seed))
	t := &SymTridiag{D: make([]float64, n), E: make([]float64, n)}
	for i := range t.D {
		t.D[i] = 2*rng.Float64() - 1
		t.E[i] = 2*rng.Float64() - 1
	}
	t.E[0] = 0
	return t
}

// FuzzSturmTable: a tabulated matrix's CountBelow equals the O(n) pass at
// every point — each point the table holds, the fuzzed x, and ±0 — so a
// hit or a miss never changes an answer.
func FuzzSturmTable(f *testing.F) {
	f.Add(int64(1), uint8(40), 0.0)
	f.Add(int64(2), uint8(1), math.Copysign(0, -1))
	f.Add(int64(3), uint8(200), 0.37)
	f.Add(int64(4), uint8(9), math.Inf(-1))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, x float64) {
		m := Random(1+int(size)%96, seed)
		tab, _ := Tabulate(m, 1e-4)
		for bits, n := range tab.counts {
			if p := math.Float64frombits(bits); m.sturm(p) != n {
				t.Fatalf("table holds %d at %v, the Sturm pass gives %d", n, p, m.sturm(p))
			}
		}
		for _, p := range []float64{x, -x, 0, math.Copysign(0, -1)} {
			if got, want := tab.CountBelow(p), m.CountBelow(p); got != want {
				t.Fatalf("CountBelow(%v): tabulated %d, plain %d", p, got, want)
			}
		}
	})
}
