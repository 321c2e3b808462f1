package sim

import (
	"math/rand"
	"sync/atomic"
)

// The node random stream. A simulated node draws for jitter, random
// placement, victim choice and its program's Ctx.Rand; many programs draw
// a few hundred times per node, and seeding a math/rand source costs more
// than those draws (607 words computed through a 20-step scrambler, 5 KB).
// NewRand returns a *rand.Rand that draws exactly what
// rand.New(rand.NewSource(seed)) draws, but is never seeded.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word vector: draw k ≥ 607 is draw k−607 plus draw k−273 (mod 2⁶⁴).
// Each draw decrements two cursors, tap and feed, and overwrites the feed
// slot with the new draw; after 607 draws the cursors are back at tap 0
// and feed 334, and each slot holds one of those 607 draws. So a seed's
// first 607 draws, stored in slot order, are the source's whole state at
// that point: prefixOf takes them once per seed from math/rand itself,
// every stream of the seed reads them in place, and a stream that passes
// its 607th draw copies them and runs the source's own step from there.

const (
	rngLen  = 607 // math/rand's rngLen: the lag
	rngTap  = 273 // math/rand's rngTap: the short lag
	rngMask = 1<<63 - 1
)

// stream is a rand.Source64 that draws what math/rand's source for the
// same seed draws. vec is the seed's shared prefix while shared is set
// (read, never written), and the stream's own state once it has passed
// the prefix.
type stream struct {
	tap, feed int32
	shared    bool
	vec       *[rngLen]int64
}

// NewRand returns a random stream that draws exactly what
// rand.New(rand.NewSource(seed)) draws, through every rand.Rand method and
// across Seed. It allocates its 5 KB state only when it passes its 607th
// draw.
func NewRand(seed int64) *rand.Rand {
	s := &stream{}
	s.Seed(seed)
	return rand.New(s)
}

// Seed restarts the stream at seed's first draw.
func (s *stream) Seed(seed int64) {
	s.tap, s.feed, s.shared, s.vec = 0, rngLen-rngTap, true, prefixOf(seed)
}

// Int63 returns a non-negative 63-bit draw.
func (s *stream) Int63() int64 {
	if x, ok := s.step(); ok {
		return x & rngMask
	}
	return int64(s.turn() & rngMask)
}

// Uint64 returns a 64-bit draw.
func (s *stream) Uint64() uint64 {
	if x, ok := s.step(); ok {
		return uint64(x)
	}
	return s.turn()
}

// step is the source's step for the draws at which neither cursor wraps
// (605 in 607), and reports whether it drew. A wrap, and every draw of the
// shared prefix, is left to turn: step calls nothing, so it inlines and a
// draw is one call, as math/rand's is.
func (s *stream) step() (int64, bool) {
	tap, feed := s.tap-1, s.feed-1
	if tap|feed < 0 {
		return 0, false
	}
	s.tap, s.feed = tap, feed
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return x, true
}

// turn is a draw at which a cursor wraps, or a draw of the shared prefix.
// In the prefix tap is held below 1, so that every draw comes here: 0
// before the first draw, -1 after it. The draw after the 607th finds feed
// back at its start and copies the prefix, which is then the state.
func (s *stream) turn() uint64 {
	if s.shared {
		if s.tap == 0 || s.feed != rngLen-rngTap {
			s.tap = -1
			if s.feed--; s.feed < 0 {
				s.feed += rngLen
			}
			return uint64(s.vec[s.feed])
		}
		own := new([rngLen]int64)
		*own = *s.vec
		s.vec, s.shared, s.tap = own, false, 0
	}
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// prefixBits sizes the prefix table: 2^prefixBits seeds of 4.9 KB each at
// most, whatever set of seeds a process draws from (a fuzzer, a seed
// sweep). A constant, not an option: a seed that misses costs one
// math/rand seeding, as before the table.
const prefixBits = 8

// prefix is a seed's first rngLen draws in math/rand's slot order.
type prefix struct {
	seed int64
	vec  [rngLen]int64
}

// prefixes is a direct-mapped table of prefixes by seed. A slot is
// replaced whole by an atomic store, so concurrent first uses of a seed
// may each build its prefix (the same words) and any may win the slot;
// a prefix is never written once published, and a stream keeps reading
// the one it was given after the slot moves on.
var prefixes [1 << prefixBits]atomic.Pointer[prefix]

// slotOf returns the index of seed's slot in prefixes (Fibonacci hashing:
// a machine's node seeds are consecutive).
func slotOf(seed int64) uint64 { return uint64(seed) * 0x9e3779b97f4a7c15 >> (64 - prefixBits) }

// prefixOf returns seed's prefix, building it from math/rand on a miss.
func prefixOf(seed int64) *[rngLen]int64 {
	slot := &prefixes[slotOf(seed)]
	if p := slot.Load(); p != nil && p.seed == seed {
		return &p.vec
	}
	p := &prefix{seed: seed}
	src := rand.NewSource(seed).(rand.Source64)
	feed := rngLen - rngTap
	for range rngLen {
		if feed--; feed < 0 {
			feed += rngLen
		}
		p.vec[feed] = int64(src.Uint64())
	}
	slot.Store(p)
	return &p.vec
}
