package neural

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// weightSum is the FNV-64a hash of every weight and bias of n, in the
// order W1, B1, W2, B2.
func weightSum(n *Net) uint64 {
	h := fnv.New64a()
	var b [4]byte
	vec := func(v []float32) {
		for _, x := range v {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	for _, row := range n.W1 {
		vec(row)
	}
	vec(n.B1)
	for _, row := range n.W2 {
		vec(row)
	}
	vec(n.B2)
	return h.Sum64()
}

// TestSquareValuesPinned guards the draw order of the random
// initialisation (a row's weights, then that row's bias): everything
// downstream — the committed figures, the benchmark's reference values —
// is a function of these weights.
func TestSquareValuesPinned(t *testing.T) {
	for _, c := range []struct {
		u    int
		seed int64
		want uint64
	}{{80, 1, 0xe66c06af78a4fc25}, {24, 1, 0x5f5290ed2e1459fe}, {16, 11, 0x13c1a8b30615fb51}} {
		if got := weightSum(Square(c.u, c.seed)); got != c.want {
			t.Errorf("Square(%d, %d): weights hash %#x, want %#x", c.u, c.seed, got, c.want)
		}
	}
	if got, want := weightSum(New(3, 5, 2, 4)), uint64(0x48a1cfd5686748c2); got != want {
		t.Errorf("New(3, 5, 2, 4): weights hash %#x, want %#x", got, want)
	}
}

func TestForwardShapeAndRange(t *testing.T) {
	n := New(4, 6, 3, 1)
	x := []float32{0.2, -0.5, 0.8, 0.1}
	h, y := n.Forward(x)
	if len(h) != 6 || len(y) != 3 {
		t.Fatalf("shapes: %d/%d", len(h), len(y))
	}
	for _, v := range append(append([]float32{}, h...), y...) {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid output %v outside (0,1)", v)
		}
	}
}

func TestForwardTinyHandComputed(t *testing.T) {
	// 1-1-1 net with known weights: y = s(w2*s(w1*x+b1)+b2).
	n := &Net{NIn: 1, NHid: 1, NOut: 1,
		W1: [][]float32{{2}}, B1: []float32{-1},
		W2: [][]float32{{-1.5}}, B2: []float32{0.5},
	}
	h, y := n.Forward([]float32{1})
	wantH := 1 / (1 + math.Exp(-1.0))
	if math.Abs(float64(h[0])-wantH) > 1e-6 {
		t.Fatalf("h = %v, want %v", h[0], wantH)
	}
	wantY := 1 / (1 + math.Exp(-(-1.5*wantH + 0.5)))
	if math.Abs(float64(y[0])-wantY) > 1e-6 {
		t.Fatalf("y = %v, want %v", y[0], wantY)
	}
}

func TestInputSizeValidation(t *testing.T) {
	n := New(3, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Forward([]float32{1, 2})
}

func TestBadLayerSizesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 3, 3, 1)
}

func TestGradientsMatchFiniteDifferences(t *testing.T) {
	n := New(5, 4, 3, 7)
	rng := rand.New(rand.NewSource(2))
	x := make([]float32, 5)
	target := make([]float32, 3)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for i := range target {
		target[i] = float32(rng.Float64())
	}
	h, y := n.Forward(x)
	g, _ := n.Backward(x, h, y, target)

	const eps = 1e-3
	check := func(name string, w *float32, analytic float32) {
		orig := *w
		*w = orig + eps
		_, yp := n.Forward(x)
		lp := Loss(yp, target)
		*w = orig - eps
		_, ym := n.Forward(x)
		lm := Loss(ym, target)
		*w = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(analytic)) > 5e-3*(1+math.Abs(numeric)) {
			t.Errorf("%s: analytic %v vs numeric %v", name, analytic, numeric)
		}
	}
	for j := 0; j < n.NHid; j++ {
		for i := 0; i < n.NIn; i++ {
			check("W1", &n.W1[j][i], g.DW1[j][i])
		}
		check("B1", &n.B1[j], g.DB1[j])
	}
	for k := 0; k < n.NOut; k++ {
		for j := 0; j < n.NHid; j++ {
			check("W2", &n.W2[k][j], g.DW2[k][j])
		}
		check("B2", &n.B2[k], g.DB2[k])
	}
}

func TestTrainXOR(t *testing.T) {
	n := New(2, 8, 1, 42)
	xs := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ts := [][]float32{{0}, {1}, {1}, {0}}
	for epoch := 0; epoch < 4000; epoch++ {
		for i := range xs {
			n.TrainSample(xs[i], ts[i], 0.9)
		}
	}
	for i := range xs {
		_, y := n.Forward(xs[i])
		if math.Abs(float64(y[0]-ts[i][0])) > 0.25 {
			t.Fatalf("XOR(%v) = %v, want %v", xs[i], y[0], ts[i][0])
		}
	}
}

func TestOnlineTrainingReducesLoss(t *testing.T) {
	n := Square(12, 3)
	rng := rand.New(rand.NewSource(4))
	xs := make([][]float32, 30)
	ts := make([][]float32, 30)
	for s := range xs {
		xs[s] = make([]float32, 12)
		ts[s] = make([]float32, 12)
		for i := range xs[s] {
			xs[s][i] = float32(rng.Float64())
			ts[s][i] = xs[s][(i+1)%12] // learn a rotation
		}
	}
	lossAt := func() float64 {
		var l float64
		for s := range xs {
			_, y := n.Forward(xs[s])
			l += Loss(y, ts[s])
		}
		return l
	}
	before := lossAt()
	for epoch := 0; epoch < 50; epoch++ {
		for s := range xs {
			n.TrainSample(xs[s], ts[s], 0.5)
		}
	}
	after := lossAt()
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
}

// TestCloneIndependent: a Clone, and a net refilled by CopyFrom, hold the
// source's values and share no memory with it — writing every element of
// the copy leaves the source as it was.
func TestCloneIndependent(t *testing.T) {
	n := New(5, 7, 3, 1)
	want := weightSum(n)
	refilled := New(5, 7, 3, 2)
	refilled.CopyFrom(n)
	for name, c := range map[string]*Net{"Clone": n.Clone(), "CopyFrom": refilled} {
		if got := weightSum(c); got != want {
			t.Errorf("%s: weights hash %#x, want the source's %#x", name, got, want)
		}
		for _, v := range append(append([][]float32{c.B1, c.B2}, c.W1...), c.W2...) {
			for i := range v {
				v[i] += 100
			}
		}
		if got := weightSum(n); got != want {
			t.Fatalf("%s aliases the source's weights", name)
		}
	}
}

// TestRowsCannotGrowIntoNeighbours: the rows of a matrix share one
// allocation, so each must be capped at its own length — an append to row
// j would otherwise overwrite row j+1.
func TestRowsCannotGrowIntoNeighbours(t *testing.T) {
	n := New(4, 3, 2, 1)
	g := n.NewGradients()
	for _, m := range [][][]float32{n.W1, n.W2, n.Clone().W1, n.Clone().W2, g.DW1, g.DW2} {
		for j, row := range m {
			if cap(row) != len(row) {
				t.Fatalf("row %d: cap %d, len %d", j, cap(row), len(row))
			}
		}
	}
	next := n.W1[1][0]
	_ = append(n.W1[0], 42)
	if n.W1[1][0] != next {
		t.Fatal("append to row 0 wrote row 1")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(4, 3, 2, 1).CopyFrom(New(4, 3, 3, 1))
}

// spread draws a float32 of random sign whose binade is uniform over
// 2^-20 .. 2^20.
func spread(rng *rand.Rand) float32 {
	v := float32(math.Ldexp(1+rng.Float64(), rng.Intn(41)-20))
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

// TestLayerForwardMatchesUnitForward: LayerForward's four-unit blocks and
// its remainder give UnitForward's bits, for every remainder (1-9 units)
// and for widths from 1 to Table 3's 720. Every product of the second
// half of a row cancels one of the first half exactly, so a unit's net
// input is the bias plus rounding residue only, and the residue depends
// on the order of the additions: a kernel that split a unit's sum across
// accumulators would change it.
func TestLayerForwardMatchesUnitForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, width := range []int{1, 3, 80, 200, 720} {
		in := make([]float32, width)
		half := width / 2
		pair := rng.Perm(width - half)
		for i := 0; i < half; i++ {
			in[i] = spread(rng)
			in[half+pair[i]] = in[i]
		}
		if width%2 == 1 {
			in[half+pair[half]] = float32(rng.NormFloat64())
		}
		for units := 1; units <= 9; units++ {
			W := newMatrix(units, width)
			B := make([]float32, units)
			for u, row := range W {
				for i := 0; i < half; i++ {
					row[i] = spread(rng)
					row[half+pair[i]] = -row[i]
				}
				if width%2 == 1 {
					row[half+pair[half]] = float32(rng.NormFloat64())
				}
				B[u] = float32(rng.NormFloat64())
			}
			checkLayer(t, W, B, in)
		}
	}
}

// FuzzLayerForward compares LayerForward with UnitForward bit for bit on
// fuzzed row counts, widths and float32 bit patterns (NaN and Inf read as
// zero).
func FuzzLayerForward(f *testing.F) {
	f.Add(uint8(5), uint16(3), []byte{0x3f, 0x80, 0, 0, 0xc1, 0x20, 0, 0})
	f.Add(uint8(9), uint16(80), []byte("a unit's products, added in index order"))
	f.Fuzz(func(t *testing.T, rows uint8, width uint16, data []byte) {
		units, n := 1+int(rows)%16, 1+int(width)%800
		// The k-th value is the k-th word of data, cycled, plus k, so a
		// short input still gives distinct values.
		next := func(k int) float32 {
			if len(data) < 4 {
				return 0
			}
			o := 4 * (k % (len(data) / 4))
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[o:]) + uint32(k))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return 0
			}
			return v
		}
		k := 0
		in := make([]float32, n)
		for i := range in {
			in[i] = next(k)
			k++
		}
		W := newMatrix(units, n)
		B := make([]float32, units)
		for u, row := range W {
			for i := range row {
				row[i] = next(k)
				k++
			}
			B[u] = next(k)
			k++
		}
		checkLayer(t, W, B, in)
	})
}

// checkLayer fails t for every unit whose LayerForward bits differ from
// UnitForward's.
func checkLayer(t *testing.T, W [][]float32, B, in []float32) {
	t.Helper()
	got := make([]float32, len(W))
	LayerForward(got, W, B, in)
	for u := range got {
		if want := UnitForward(W[u], B[u], in); math.Float32bits(got[u]) != math.Float32bits(want) {
			t.Errorf("%d units of width %d: unit %d is %v, UnitForward gives %v", len(W), len(in), u, got[u], want)
		}
	}
}

func TestLoss(t *testing.T) {
	if l := Loss([]float32{1, 0}, []float32{0, 0}); l != 0.5 {
		t.Fatalf("Loss = %v", l)
	}
	if l := Loss([]float32{1}, []float32{1}); l != 0 {
		t.Fatalf("Loss = %v", l)
	}
}

func TestUnitCostCalibration(t *testing.T) {
	// Table 3: 32/67/222 us per unit at 80/200/720 units.
	cases := map[int]float64{80: 32, 200: 67, 720: 222}
	for u, want := range cases {
		got := UnitCostFor(u).Microseconds()
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("UnitCostFor(%d) = %.1fus, want ~%.0fus", u, got, want)
		}
	}
}
