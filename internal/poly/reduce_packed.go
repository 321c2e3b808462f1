package poly

import (
	"math/bits"
	"slices"
)

// The packed engine: SPoly, Monic and NormalForm on the key/residue form
// of packed.go. Each returns ok=false, having changed nothing, when a
// product leaves the packed range; the caller then runs the generic
// engine on the same inputs.

// packedWorkspace is the reduction workspace the Reducer retains: the
// accumulator table, the heap of keys still to eliminate, the divisor
// table, the S-polynomial of Reduce and the output under construction.
type packedWorkspace struct {
	// slots[i] holds key+1 (0 marks an empty slot; keys stay below 2^63)
	// and acc[i] its accumulated residue. len(slots) is a power of two
	// and the table is kept at most half full. Entries are never deleted:
	// an eliminated monomial cannot re-enter (everything added lies
	// strictly below it), and one whose residue cancels to zero is
	// skipped when popped.
	slots []uint64
	acc   []uint32
	used  int
	shift uint // 64 - log2(len(slots))

	heap []uint64 // max-heap of the distinct keys in the table

	// The divisor table: divs holds the nonzero divisors stably sorted by
	// term count and leadW[i] the exponent word of divs[i]'s leading
	// monomial, so the first entry whose word divides a monomial is the
	// first divisor, in the caller's order, among those with the fewest
	// terms. The Reducer builds it from its basis at the first reduction
	// after SetBasis and keeps it until the next SetBasis, which drops it
	// and clears its references, so a workspace at rest pins no
	// polynomial. Its storage is the workspace's, reused from table to
	// table.
	leadW []uint64
	divs  []*Poly

	spK  []uint64 // S-polynomial under reduction (Reduce)
	spC  []uint32
	outK []uint64
	outC []uint32
}

// reset empties the table, sizing it for at least n entries.
func (w *packedWorkspace) reset(n int) {
	size := 64
	for size < 2*n {
		size *= 2
	}
	if size > len(w.slots) {
		w.slots = make([]uint64, size)
		w.acc = make([]uint32, size)
	} else {
		clear(w.slots)
	}
	w.used = 0
	w.shift = uint(64 - bits.TrailingZeros(uint(len(w.slots))))
}

// find returns key's slot, or the empty slot where it belongs.
func (w *packedWorkspace) find(key uint64) (pos int, found bool) {
	mask := len(w.slots) - 1
	pos = int(key * 0x9E3779B97F4A7C15 >> w.shift)
	for {
		switch w.slots[pos] {
		case key + 1:
			return pos, true
		case 0:
			return pos, false
		}
		pos = (pos + 1) & mask
	}
}

// insert registers a key that find reported missing at pos, and pushes it
// on the heap.
func (w *packedWorkspace) insert(pos int, key uint64, c uint32) {
	if 2*(w.used+1) > len(w.slots) {
		w.grow()
		pos, _ = w.find(key)
	}
	w.slots[pos], w.acc[pos] = key+1, c
	w.used++
	w.push(key)
}

func (w *packedWorkspace) grow() {
	oldSlots, oldAcc := w.slots, w.acc
	w.slots = make([]uint64, 2*len(oldSlots))
	w.acc = make([]uint32, 2*len(oldSlots))
	w.shift--
	for i, s := range oldSlots {
		if s != 0 {
			pos, _ := w.find(s - 1)
			w.slots[pos], w.acc[pos] = s, oldAcc[i]
		}
	}
}

func (w *packedWorkspace) push(key uint64) {
	h := append(w.heap, key)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= key {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = key
	w.heap = h
}

// pop removes and returns the largest key. The hole at the root walks down
// to a leaf along the larger child, chosen by the borrow of a subtraction
// rather than a branch (the heap is a few hundred keys at most, so a pop
// costs what its compares mispredict), and the displaced last key is lifted
// from there; being a former leaf it seldom rises more than a level. Keys
// are compared as plain unsigned integers, so one carrying a guard bit —
// pushed by a step that is about to bail out — sorts like any other.
func (w *packedWorkspace) pop() uint64 {
	h := w.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	w.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n {
			_, right := bits.Sub64(h[c], h[c+1], 0) // 1 when h[c] < h[c+1]
			c += int(right)
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= last {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = last
	return top
}

// setDivisors builds the divisor table from G (see packedWorkspace) by an
// insertion sort, stable because an entry moves only past strictly longer
// ones. It reports whether every nonzero polynomial in G is a packed
// polynomial of one ring, and which (nil when there is none); when not,
// the table is left empty and unusable.
func (w *packedWorkspace) setDivisors(G []*Poly) (ring *Ring, ok bool) {
	w.dropDivisors()
	for _, g := range G {
		if g == nil || g.IsZero() {
			continue
		}
		if ring == nil {
			ring = g.ring
		}
		if g.ring != ring || !g.packed() {
			w.dropDivisors()
			return nil, false
		}
		i := len(w.divs)
		w.leadW, w.divs = append(w.leadW, 0), append(w.divs, nil)
		for ; i > 0 && len(w.divs[i-1].keys) > len(g.keys); i-- {
			w.leadW[i], w.divs[i] = w.leadW[i-1], w.divs[i-1]
		}
		w.leadW[i], w.divs[i] = ring.expWord(g.keys[0]), g
	}
	return ring, true
}

// dropDivisors empties the divisor table, clearing its references.
func (w *packedWorkspace) dropDivisors() {
	clear(w.divs)
	w.leadW, w.divs = w.leadW[:0], w.divs[:0]
}

// divisor returns the table's first divisor whose leading monomial divides
// the monomial with exponent word mw, or nil.
func (w *packedWorkspace) divisor(mw uint64) *Poly {
	for i, lw := range w.leadW {
		if wordDivides(lw, mw) {
			return w.divs[i]
		}
	}
	return nil
}

// reduce is the packed reduction engine, on the dividend given by its key
// and residue slices (a polynomial's, or the workspace's S-polynomial) and
// the divisor table. It follows genericWorkspace.normalForm step for step.
// When monic is set, a nonzero result is scaled to leading coefficient 1
// as it is copied out.
func (w *packedWorkspace) reduce(ring *Ring, keys []uint64, coefs []uint32, monic bool) (*Poly, ReduceStats, bool) {
	var st ReduceStats
	mod := ring.modp
	w.reset(len(keys))
	for i, k := range keys {
		pos, _ := w.find(k)
		w.slots[pos], w.acc[pos] = k+1, coefs[i]
	}
	w.used = len(keys)
	// The keys descend strictly, so as they stand they form a max-heap.
	w.heap = append(w.heap[:0], keys...)
	w.outK, w.outC = w.outK[:0], w.outC[:0]

	for len(w.heap) > 0 {
		m := w.pop()
		pos, _ := w.find(m)
		c := w.acc[pos]
		if c == 0 {
			continue // cancelled since it was pushed
		}
		g := w.divisor(ring.expWord(m))
		if g == nil {
			w.outK, w.outC = append(w.outK, m), append(w.outC, c)
			st.TermOps++
			continue
		}
		// Add (-c / lc(g)) * (m / lm(g)) * g; the lead cancels exactly.
		q := mod.p - uint64(c)
		if lc := g.coefs[0]; lc != 1 {
			q = mod.reduce(q * mod.inverse(lc))
		}
		shift := m - g.keys[0]
		var sums uint64
		tailK := g.keys[1:]
		tailC := g.coefs[1:][:len(tailK)]
		for j, k := range tailK {
			k += shift
			sums |= k
			d := mod.reduce(q * uint64(tailC[j])) // in [1, p): p is prime
			if pos, found := w.find(k); found {
				s := uint64(w.acc[pos]) + d
				if s >= mod.p {
					s -= mod.p
				}
				w.acc[pos] = uint32(s)
			} else {
				w.insert(pos, k, uint32(d))
			}
		}
		if sums&guardBits != 0 {
			return nil, st, false
		}
		st.Steps++
		st.TermOps += len(g.keys)
	}
	if len(w.outK) == 0 {
		return ring.Zero(), st, true
	}
	// The output was produced in strictly descending order (heap pops).
	nf := &Poly{ring: ring, keys: slices.Clone(w.outK)}
	if monic && w.outC[0] != 1 {
		nf.coefs = mod.monic(w.outC)
	} else {
		nf.coefs = slices.Clone(w.outC)
	}
	return nf, st, true
}

// spolyPacked appends to keys and coefs (both empty) the S-polynomial of
// two nonzero packed polynomials of one ring, merging their shifted tails;
// the leading terms cancel. SPoly hands it fresh slices, Reduce the
// workspace's.
func spolyPacked(f, g *Poly, keys []uint64, coefs []uint32) ([]uint64, []uint32, bool) {
	ring := f.ring
	mod := ring.modp
	lcm, ok := ring.lcmKey(f.keys[0], g.keys[0])
	if !ok {
		return keys, coefs, false
	}
	sf, sg := lcm-f.keys[0], lcm-g.keys[0]
	// S = cf*f - cg*g with cf = 1/lc(f) and cg = 1/lc(g); ng is -cg.
	cf, ng := uint64(1), mod.p-1
	if f.coefs[0] != 1 {
		cf = mod.inverse(f.coefs[0])
	}
	if g.coefs[0] != 1 {
		ng = mod.p - mod.inverse(g.coefs[0])
	}
	emit := func(k, c uint64) {
		if c != 0 {
			keys, coefs = append(keys, k), append(coefs, uint32(c))
		}
	}
	fc := func(i int) uint64 { return mod.reduce(cf * uint64(f.coefs[i])) }
	gc := func(j int) uint64 { return mod.reduce(ng * uint64(g.coefs[j])) }
	var sums uint64
	i, j := 1, 1
	for i < len(f.keys) && j < len(g.keys) {
		a, b := f.keys[i]+sf, g.keys[j]+sg
		sums |= a | b
		switch {
		case a > b:
			emit(a, fc(i))
			i++
		case a < b:
			emit(b, gc(j))
			j++
		default:
			c := fc(i) + gc(j)
			if c >= mod.p {
				c -= mod.p
			}
			emit(a, c)
			i++
			j++
		}
	}
	for ; i < len(f.keys); i++ {
		a := f.keys[i] + sf
		sums |= a
		emit(a, fc(i))
	}
	for ; j < len(g.keys); j++ {
		b := g.keys[j] + sg
		sums |= b
		emit(b, gc(j))
	}
	return keys, coefs, sums&guardBits == 0
}

// monicPacked scales a nonzero packed polynomial to leading coefficient 1.
// A polynomial that is already monic is returned as it is (polynomials are
// immutable), without an inverse.
func (p *Poly) monicPacked() *Poly {
	if p.coefs[0] == 1 {
		return p
	}
	return &Poly{ring: p.ring, keys: p.keys, coefs: p.ring.modp.monic(p.coefs)}
}

// monic returns a copy of the residues coefs (the first nonzero) scaled so
// that the first is 1.
func (m modulus) monic(coefs []uint32) []uint32 {
	inv := m.inverse(coefs[0])
	out := make([]uint32, len(coefs))
	for i, c := range coefs {
		out[i] = uint32(m.reduce(uint64(c) * inv))
	}
	return out
}
