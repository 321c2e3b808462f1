// Package neural implements the paper's third application: feed-forward
// artificial neural networks with backpropagation, parallelised at the
// unit level. A network has three layers (input, hidden, output) with
// full linkage between adjacent layers; each unit computes a scalar
// product of the previous layer's activations with its weight vector and
// applies the sigmoid. Unit parallelism slices each layer across machine
// nodes — "at the very end of the spectrum of parallelizable programs,
// with a very critical ratio of computation to communication".
package neural

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

// Net is a fully connected 3-layer feed-forward network with float32
// weights ("all computations using floats for the operands", Table 3).
type Net struct {
	NIn, NHid, NOut int
	// W1[j][i]: weight from input i to hidden unit j; B1[j] its bias.
	W1 [][]float32
	B1 []float32
	// W2[k][j]: weight from hidden j to output unit k; B2[k] its bias.
	W2 [][]float32
	B2 []float32
	// fwd is the forward table of a net from Tabulate: fwd[phaseHidden]
	// maps the bits of an input to its hidden activations,
	// fwd[phaseOutput] the bits of those to the output activations. Both
	// are nil on a plain net and never written once Tabulate returns, so
	// concurrent readers need no lock.
	fwd [2]map[string][]float32
}

// New creates a network with small random weights.
func New(nIn, nHid, nOut int, seed int64) *Net {
	if nIn <= 0 || nHid <= 0 || nOut <= 0 {
		panic(fmt.Sprintf("neural: bad layer sizes %d/%d/%d", nIn, nHid, nOut))
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Net{NIn: nIn, NHid: nHid, NOut: nOut}
	n.W1, n.B1 = randMatrix(rng, nHid, nIn)
	n.W2, n.B2 = randMatrix(rng, nOut, nHid)
	return n
}

// Square creates the paper's configuration: u units in every layer
// (Table 3 uses u = 80, 200, 720).
func Square(u int, seed int64) *Net { return New(u, u, u, seed) }

// newMatrix allocates a rows×cols weight matrix as one block. Each row is
// a full slice expression, so an append to a row cannot reach the next.
func newMatrix(rows, cols int) [][]float32 {
	flat := make([]float32, rows*cols)
	w := make([][]float32, rows)
	for j := range w {
		w[j] = flat[j*cols : (j+1)*cols : (j+1)*cols]
	}
	return w
}

// randMatrix draws a row's weights, then that row's bias, row by row: the
// order is what makes New(…, seed) the same network as ever.
func randMatrix(rng *rand.Rand, rows, cols int) ([][]float32, []float32) {
	w := newMatrix(rows, cols)
	b := make([]float32, rows)
	scale := 1 / math.Sqrt(float64(cols))
	for j, row := range w {
		for i := range row {
			row[i] = float32((2*rng.Float64() - 1) * scale)
		}
		b[j] = float32((2*rng.Float64() - 1) * scale)
	}
	return w, b
}

// Sigmoid is the Θ activation of Figure 6(c).
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Dot computes a unit's net input: the scalar product of the previous
// layer's activations with the unit's weights plus its bias. Each product
// of two float32s is exact in float64, but every addition rounds, so the
// result depends on the order of the additions. The contract is the
// order: starting from the bias, add the products in index order. Every
// path that computes a unit's net input (LayerForward, the sequential and
// the unit-parallel runs) keeps it, which is why they agree bit for bit.
func Dot(w []float32, b float32, in []float32) float32 {
	acc := float64(b)
	for i, wi := range w {
		acc += float64(wi) * float64(in[i])
	}
	return float32(acc)
}

// UnitForward computes one unit's activation.
func UnitForward(w []float32, b float32, in []float32) float32 {
	return Sigmoid(Dot(w, b, in))
}

// LayerForward sets dst[u] = UnitForward(W[u], B[u], in) for every u of
// dst; each row of W holds len(in) weights. It computes four units per
// pass over in, converting each in[i] once. Every unit keeps its own
// accumulator and adds its products in index order, as Dot does, so the
// results are Dot's bit for bit: the four addition chains are independent
// and overlap, where one chain waits for each addition before the next.
// A unit's sum is never split across accumulators, which would regroup
// it and change its bits. The fewer than four units left over go through
// UnitForward.
func LayerForward(dst []float32, W [][]float32, B []float32, in []float32) {
	u := 0
	for ; u+4 <= len(dst); u += 4 {
		w0, w1, w2, w3 := W[u][:len(in)], W[u+1][:len(in)], W[u+2][:len(in)], W[u+3][:len(in)]
		a0, a1, a2, a3 := float64(B[u]), float64(B[u+1]), float64(B[u+2]), float64(B[u+3])
		for i, x := range in {
			xf := float64(x)
			a0 += float64(w0[i]) * xf
			a1 += float64(w1[i]) * xf
			a2 += float64(w2[i]) * xf
			a3 += float64(w3[i]) * xf
		}
		dst[u], dst[u+1] = Sigmoid(float32(a0)), Sigmoid(float32(a1))
		dst[u+2], dst[u+3] = Sigmoid(float32(a2)), Sigmoid(float32(a3))
	}
	for ; u < len(dst); u++ {
		dst[u] = UnitForward(W[u], B[u], in)
	}
}

// Forward runs a full forward pass, returning hidden and output
// activations.
func (n *Net) Forward(x []float32) (hidden, out []float32) {
	if len(x) != n.NIn {
		panic(fmt.Sprintf("neural: input size %d, want %d", len(x), n.NIn))
	}
	hidden = make([]float32, n.NHid)
	LayerForward(hidden, n.W1, n.B1, x)
	out = make([]float32, n.NOut)
	LayerForward(out, n.W2, n.B2, hidden)
	return hidden, out
}

// Tabulate runs n.Forward once per input of xs and returns a net that
// shares n's weights and carries the activations of both layers, keyed by
// the exact bits of each layer's input. A unit-parallel forward run on it
// (ParallelRun without Train) copies every node's units from the table
// for an input it holds and computes any other input as on n: the
// simulated run still charges every unit through Ctx.Compute, the host
// computes each layer once per input. The table is right only while the
// weights are n's at the time of the call, so nothing may write them
// afterwards: a tabulated net never trains, and its Clone is a plain net.
func Tabulate(n *Net, xs [][]float32) *Net {
	t := &Net{NIn: n.NIn, NHid: n.NHid, NOut: n.NOut, W1: n.W1, B1: n.B1, W2: n.W2, B2: n.B2,
		fwd: [2]map[string][]float32{phaseHidden: {}, phaseOutput: {}}}
	for _, x := range xs {
		hidden, out := n.Forward(x)
		t.fwd[phaseHidden][string(bitsOf(x))] = hidden
		t.fwd[phaseOutput][string(bitsOf(hidden))] = out
	}
	return t
}

// bitsOf views v's float32s as bytes, so that a string of them keys v's
// exact bits: -0 and +0, or two NaNs of different payloads, are different
// keys.
func bitsOf(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// Loss is the squared error 0.5*sum((y-t)^2).
func Loss(y, t []float32) float64 {
	var s float64
	for i := range y {
		d := float64(y[i] - t[i])
		s += 0.5 * d * d
	}
	return s
}

// Gradients holds the weight and bias gradients of one sample.
type Gradients struct {
	DW1 [][]float32
	DB1 []float32
	DW2 [][]float32
	DB2 []float32
}

// NewGradients allocates zeroed gradients shaped like n.
func (n *Net) NewGradients() *Gradients {
	return &Gradients{
		DW1: newMatrix(n.NHid, n.NIn), DB1: make([]float32, n.NHid),
		DW2: newMatrix(n.NOut, n.NHid), DB2: make([]float32, n.NOut),
	}
}

// OutputDelta computes one output unit's error term for squared loss:
// (y - t) * y * (1 - y).
func OutputDelta(y, t float32) float32 { return (y - t) * y * (1 - y) }

// HiddenDelta computes a hidden unit's error term from its activation and
// the back-propagated weighted error sum.
func HiddenDelta(h, backSum float32) float32 { return backSum * h * (1 - h) }

// Backward computes the gradients of one sample given the forward
// activations. It also returns the hidden-layer deltas (the values the
// parallel version exchanges between the output and hidden layers).
func (n *Net) Backward(x, hidden, out, target []float32) (*Gradients, []float32) {
	if len(target) != n.NOut {
		panic(fmt.Sprintf("neural: target size %d, want %d", len(target), n.NOut))
	}
	g := n.NewGradients()
	deltaOut := make([]float32, n.NOut)
	for k := range deltaOut {
		deltaOut[k] = OutputDelta(out[k], target[k])
		for j := range hidden {
			g.DW2[k][j] = deltaOut[k] * hidden[j]
		}
		g.DB2[k] = deltaOut[k]
	}
	// Back-propagated sums per hidden unit, float64-accumulated in output
	// unit order. The sums round, so the order is part of the result: the
	// unit-parallel run adds float32 partials per node and then up its
	// tree, and agrees with these only to within rounding.
	deltaHid := make([]float32, n.NHid)
	for j := range deltaHid {
		var acc float64
		for k := range deltaOut {
			acc += float64(n.W2[k][j]) * float64(deltaOut[k])
		}
		deltaHid[j] = HiddenDelta(hidden[j], float32(acc))
		for i := range x {
			g.DW1[j][i] = deltaHid[j] * x[i]
		}
		g.DB1[j] = deltaHid[j]
	}
	return g, deltaHid
}

// Apply updates the weights with gradient descent at learning rate lr.
func (n *Net) Apply(g *Gradients, lr float32) {
	for j := range n.W1 {
		for i := range n.W1[j] {
			n.W1[j][i] -= lr * g.DW1[j][i]
		}
		n.B1[j] -= lr * g.DB1[j]
	}
	for k := range n.W2 {
		for j := range n.W2[k] {
			n.W2[k][j] -= lr * g.DW2[k][j]
		}
		n.B2[k] -= lr * g.DB2[k]
	}
}

// TrainSample runs one online-update step (forward + backward + apply),
// returning the pre-update loss.
func (n *Net) TrainSample(x, target []float32, lr float32) float64 {
	hidden, out := n.Forward(x)
	g, _ := n.Backward(x, hidden, out, target)
	n.Apply(g, lr)
	return Loss(out, target)
}

// Clone deep-copies the network: the copy shares no memory with n and
// carries no forward table (Tabulate).
func (n *Net) Clone() *Net {
	c := &Net{NIn: n.NIn, NHid: n.NHid, NOut: n.NOut,
		W1: newMatrix(n.NHid, n.NIn), B1: make([]float32, n.NHid),
		W2: newMatrix(n.NOut, n.NHid), B2: make([]float32, n.NOut)}
	c.CopyFrom(n)
	return c
}

// CopyFrom overwrites n's weights and biases with src's, which must have
// the same layer sizes. It allocates nothing, so a net can be reset to a
// template and trained again.
func (n *Net) CopyFrom(src *Net) {
	if n.NIn != src.NIn || n.NHid != src.NHid || n.NOut != src.NOut {
		panic(fmt.Sprintf("neural: CopyFrom %d/%d/%d into %d/%d/%d",
			src.NIn, src.NHid, src.NOut, n.NIn, n.NHid, n.NOut))
	}
	for j, row := range src.W1 {
		copy(n.W1[j], row)
	}
	copy(n.B1, src.B1)
	for k, row := range src.W2 {
		copy(n.W2[k], row)
	}
	copy(n.B2, src.B2)
}
