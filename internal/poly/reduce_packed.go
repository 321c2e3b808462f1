package poly

import "math/bits"

// The packed engine: SPoly, Monic and NormalForm on the key/residue form
// of packed.go. Each returns ok=false, having changed nothing, when a
// product leaves the packed range; the caller then runs the generic
// engine on the same inputs.

// packedWorkspace is the reduction workspace the Reducer retains: the
// accumulator table, the heap of keys still to eliminate, the divisors'
// leading exponent words and the output under construction.
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

	heap  []uint64 // max-heap of the distinct keys in the table
	leads []packedLead
	outK  []uint64
	outC  []uint32
}

type packedLead struct {
	word uint64 // exponent word of the leading monomial
	g    *Poly
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

func (w *packedWorkspace) pop() uint64 {
	h := w.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	w.heap = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r] > h[child] {
			child = r
		}
		if h[child] <= last {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// normalForm is the packed reduction engine. It follows
// genericWorkspace.normalForm step for step.
func (w *packedWorkspace) normalForm(f *Poly, G []*Poly) (*Poly, ReduceStats, bool) {
	var st ReduceStats
	ring := f.ring
	p := uint64(ring.modInt)
	w.leads = w.leads[:0]
	for _, g := range G {
		if g != nil && len(g.keys) > 0 {
			w.leads = append(w.leads, packedLead{ring.expWord(g.keys[0]), g})
		}
	}
	w.reset(len(f.keys))
	for i, k := range f.keys {
		pos, _ := w.find(k)
		w.slots[pos], w.acc[pos] = k+1, f.coefs[i]
	}
	w.used = len(f.keys)
	// f's keys descend strictly, so as they stand they form a max-heap.
	w.heap = append(w.heap[:0], f.keys...)
	w.outK, w.outC = w.outK[:0], w.outC[:0]

	for len(w.heap) > 0 {
		m := w.pop()
		pos, _ := w.find(m)
		c := w.acc[pos]
		if c == 0 {
			continue // cancelled since it was pushed
		}
		mw := ring.expWord(m)
		var g *Poly
		for i := range w.leads {
			if l := &w.leads[i]; wordDivides(l.word, mw) && (g == nil || len(l.g.keys) < len(g.keys)) {
				g = l.g
			}
		}
		if g == nil {
			w.outK, w.outC = append(w.outK, m), append(w.outC, c)
			st.TermOps++
			continue
		}
		// Subtract (c / lc(g)) * (m / lm(g)) * g; the lead cancels exactly.
		q := uint64(c)
		if lc := g.coefs[0]; lc != 1 {
			q = q * modInverse(lc, p) % p
		}
		shift := m - g.keys[0]
		var sums uint64
		for j, k := range g.keys[1:] {
			k += shift
			sums |= k
			d := p - q*uint64(g.coefs[j+1])%p // in [1, p): p is prime
			if pos, found := w.find(k); found {
				s := uint64(w.acc[pos]) + d
				if s >= p {
					s -= p
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
	// The output was produced in strictly descending order (heap pops).
	out := &Poly{ring: ring}
	if len(w.outK) > 0 {
		out.keys = append([]uint64(nil), w.outK...)
		out.coefs = append([]uint32(nil), w.outC...)
	}
	return out, st, true
}

// spolyPacked forms the S-polynomial of two nonzero packed polynomials of
// one ring by merging their shifted tails; the leading terms cancel.
func spolyPacked(f, g *Poly) (*Poly, bool) {
	ring := f.ring
	p := uint64(ring.modInt)
	lcm, ok := ring.lcmKey(f.keys[0], g.keys[0])
	if !ok {
		return nil, false
	}
	sf, sg := lcm-f.keys[0], lcm-g.keys[0]
	cf, cg := uint64(1), uint64(1)
	if f.coefs[0] != 1 {
		cf = modInverse(f.coefs[0], p)
	}
	if g.coefs[0] != 1 {
		cg = modInverse(g.coefs[0], p)
	}
	keys := make([]uint64, 0, len(f.keys)+len(g.keys)-2)
	coefs := make([]uint32, 0, len(f.keys)+len(g.keys)-2)
	emit := func(k, c uint64) {
		if c != 0 {
			keys, coefs = append(keys, k), append(coefs, uint32(c))
		}
	}
	fc := func(i int) uint64 { return cf * uint64(f.coefs[i]) % p }
	gc := func(j int) uint64 { return p - cg*uint64(g.coefs[j])%p }
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
			emit(a, (fc(i)+gc(j))%p)
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
	if sums&guardBits != 0 {
		return nil, false
	}
	return &Poly{ring: ring, keys: keys, coefs: coefs}, true
}

// monicPacked scales a nonzero packed polynomial to leading coefficient 1.
// A polynomial that is already monic is returned as it is (polynomials are
// immutable), without an inverse.
func (p *Poly) monicPacked() *Poly {
	if p.coefs[0] == 1 {
		return p
	}
	mod := uint64(p.ring.modInt)
	inv := modInverse(p.coefs[0], mod)
	coefs := make([]uint32, len(p.coefs))
	for i, c := range p.coefs {
		coefs[i] = uint32(uint64(c) * inv % mod)
	}
	return &Poly{ring: p.ring, keys: p.keys, coefs: coefs}
}
