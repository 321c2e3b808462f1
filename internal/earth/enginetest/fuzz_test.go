package enginetest

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"earth/internal/earth"
	"earth/internal/faults"
	"earth/internal/sim"
)

// FuzzFaultMatrix explores the fault matrix between its rows. planBytes
// decode to one fault plan that may mix every class — message faults,
// degrade and pause windows, up to three crashes and up to two partitions
// — a detection lease and a utilisation sample period; progBytes to a
// shape of the matrix program.
// Plans Validate or ResolveFaults reject are skipped. Every input runs on
// simrt with the sanitizer as drawn and, when coalesce is set, both
// uncoalesced and coalesced, and checkCell judges each run. A clean plan
// runs on livert too; a faulted livert cell waits on the wall clock, so
// those run only in TestFaultMatrix. The rows are the seeds: each must
// decode to its row, and is then judged by what its plan implies (a row's
// own chaos and dropChain expectations are TestFaultMatrix's).
func FuzzFaultMatrix(f *testing.F) {
	for _, row := range matrixRows {
		plan, prog := encodePlan(row.plan, row.retry.Lease, row.sample), encodeProg(row.prog)
		got, want := decodeRow(plan, prog), row.plan
		if want == nil {
			want = &faults.Plan{}
		}
		if !reflect.DeepEqual(got.plan, want) || got.retry != row.retry || got.sample != row.sample ||
			!reflect.DeepEqual(got.prog, row.prog) {
			f.Fatalf("%s: seed decodes to %v lease %v sample %v %+v", row.name, got.plan, got.retry.Lease, got.sample, got.prog)
		}
		for _, coal := range []bool{false, true} {
			for _, san := range []bool{false, true} {
				f.Add(coal, san, plan, prog)
			}
		}
	}
	f.Fuzz(func(t *testing.T, coal, san bool, planBytes, progBytes []byte) {
		row := decodeRow(planBytes, progBytes)
		if err := row.plan.Validate(); err != nil {
			t.Skip(err)
		}
		// Every plan it accepts survives its rendering — plans with crashes,
		// partitions and windows together included, which FuzzParsePlan's
		// text mutations seldom reach.
		if q, err := faults.Parse(row.plan.String()); err != nil || !reflect.DeepEqual(row.plan, q) {
			t.Fatalf("plan %+v renders as %q, which parses to %+v (%v)", row.plan, row.plan.String(), q, err)
		}
		if _, err := (matrixCell{row: row}).config().ResolveFaults(); err != nil {
			t.Skip(err)
		}
		var cells []matrixCell
		for _, live := range []bool{false, true} {
			if live && row.plan.Enabled() {
				break
			}
			cells = append(cells, matrixCell{row: row, live: live, san: san})
			if coal {
				cells = append(cells, matrixCell{row: row, live: live, coal: true, san: san})
			}
		}
		done := map[string]cellRun{}
		for _, c := range cells {
			r := c.run(t)
			checkCell(t, c, r, done)
			done[c.name()] = cellRun{st: r.st, res: r.res}
		}
	})
}

// planUnit is the grid of the instants and spans a decoded plan draws, of
// the lease and of a decoded program's leaf work.
const planUnit = 50 * sim.Microsecond

// byteReader yields a fuzz input's bytes in turn, then zeros.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzRow names every row decodeRow builds.
const fuzzRow = "fuzz"

// decodeRow builds a matrix row from fuzz input.
func decodeRow(planBytes, progBytes []byte) matrixRow {
	plan, lease, sample := decodePlan(planBytes)
	return matrixRow{name: fuzzRow, plan: plan, retry: earth.RetryPolicy{Lease: lease}, prog: decodeProg(progBytes),
		sample: sample}
}

// decodePlan reads a plan, a lease and a utilisation sample period from
// b, one byte a field unless noted. The lists come first, so that one mutated byte adds a fault:
//
//	counts: crashes b&3, partitions (b>>2&3)%3, pauses (b>>4&3)%3, degrades (b>>6)%3
//	per crash: node, instant
//	per partition: start, length, then two bytes of two-bit node sides
//	  (node n at bit 2n; 1 is the first group, 2 the second)
//	per pause: node, start, length
//	per degrade: node, start, length, factor (b+8)/4
//	seed; drop, dup, reorder and corrupt, each b%101/100
//	reorder window, b × 10µs
//	lease, two bytes big-endian × planUnit (0: the default)
//	sample period, b × planUnit (0: no sampling)
//
// The i-th crash, pause or degrade names node (b+1+i)%9, 8 meaning "*"; an
// instant or a length is b × planUnit. Each field is counted from a zero
// point, so that zero bytes — and so a truncated input, or the clean seed
// with its first byte mutated — compose faults mid-run: the counts byte is
// XORed with one crash and one partition, the i-th crash or window names
// node 1+i, instants are 200µs, and a partition splits {0,1} from {2,3}
// for 1.5ms, outliving the default 1ms lease, so {2,3} fence. Out-of-range
// values — a "*" crash, an empty window or group, a factor below 1, a
// probability of 1 — are kept for Validate to reject.
func decodePlan(b []byte) (*faults.Plan, sim.Time, sim.Time) {
	r := byteReader(b)
	span := func(zero byte) sim.Time { return sim.Time(byte(r.next())+zero) * planUnit }
	node := func(i int) int {
		if n := (r.next() + 1 + i) % 9; n < 8 {
			return n
		}
		return -1
	}
	p := &faults.Plan{}
	counts := r.next() ^ countsZero
	for i := range counts & 3 {
		p.Crash = append(p.Crash, faults.Crash{Node: node(i), At: span(atZero)})
	}
	for range (counts >> 2 & 3) % 3 {
		pt := faults.Partition{From: span(atZero)}
		pt.To = pt.From + span(cutZero)
		sides := (r.next()<<8 | r.next()) ^ sidesZero
		for n := 0; n < 8; n++ {
			if g := sides >> (2 * n) & 3; g == 1 || g == 2 {
				pt.Groups[g-1] = append(pt.Groups[g-1], n)
			}
		}
		p.Partition = append(p.Partition, pt)
	}
	for i := range (counts >> 4 & 3) % 3 {
		w := faults.Window{Node: node(i), From: span(atZero), Factor: 1}
		w.To = w.From + span(atZero)
		p.Pause = append(p.Pause, w)
	}
	for i := range (counts >> 6) % 3 {
		w := faults.Window{Node: node(i), From: span(atZero)}
		w.To = w.From + span(atZero)
		w.Factor = float64(byte(r.next())+8) / 4
		p.Degrade = append(p.Degrade, w)
	}
	prob := func() float64 { return float64(r.next()%101) / 100 }
	p.Seed = int64(r.next())
	p.Drop, p.Dup, p.Reorder, p.Corrupt = prob(), prob(), prob(), prob()
	p.Window = sim.Time(r.next()) * 10 * sim.Microsecond
	lease := sim.Time(r.next()<<8|r.next()) * planUnit
	return p, lease, sim.Time(r.next()) * planUnit
}

// The zero points of decodePlan's fields: one crash and one partition; in
// planUnits, 200µs and 1.5ms; and the sides {0,1}|{2,3}.
const (
	countsZero = 1 | 1<<2
	atZero     = 4
	cutZero    = 30
	sidesZero  = 1 | 1<<2 | 2<<4 | 2<<6
)

// encodePlan is decodePlan's inverse on the rows' plans. It leaves out
// trailing zero bytes, so that the clean plan is one byte and every
// mutation of it composes faults.
func encodePlan(p *faults.Plan, lease, sample sim.Time) []byte {
	if p == nil {
		p = &faults.Plan{}
	}
	span := func(d sim.Time, zero byte) byte { return byte(d/planUnit) - zero }
	node := func(n, i int) byte { return byte(min(uint(n), 8)+26-uint(i)) % 9 }
	b := []byte{byte(len(p.Crash)|len(p.Partition)<<2|len(p.Pause)<<4|len(p.Degrade)<<6) ^ countsZero}
	for i, c := range p.Crash {
		b = append(b, node(c.Node, i), span(c.At, atZero))
	}
	for _, pt := range p.Partition {
		sides := 0
		for g, nodes := range pt.Groups {
			for _, n := range nodes {
				sides |= (g + 1) << (2 * n)
			}
		}
		sides ^= sidesZero
		b = append(b, span(pt.From, atZero), span(pt.To-pt.From, cutZero), byte(sides>>8), byte(sides))
	}
	for i, w := range p.Pause {
		b = append(b, node(w.Node, i), span(w.From, atZero), span(w.To-w.From, atZero))
	}
	for i, w := range p.Degrade {
		b = append(b, node(w.Node, i), span(w.From, atZero), span(w.To-w.From, atZero), byte(w.Factor*4)-8)
	}
	prob := func(v float64) byte { return byte(math.Round(v * 100)) }
	b = append(b, byte(p.Seed), prob(p.Drop), prob(p.Dup), prob(p.Reorder), prob(p.Corrupt),
		byte(p.Window/(10*sim.Microsecond)), byte(lease/planUnit>>8), byte(lease/planUnit), byte(sample/planUnit))
	return bytes.TrimRight(b, "\x00")
}

// decodeProg reads a program shape from b, one byte a field: nodes-1 (%8),
// spreaders-1 (%16), nesting depth (%4), branch-1 (%4), burst length (%41),
// big (bit 0), leaf work (× planUnit), then a hop for each spreader and each
// nesting level: kind b%3 (token, invoke, post), target node b/3.
func decodeProg(b []byte) progShape {
	r := byteReader(b)
	p := progShape{nodes: 1 + r.next()%8, spread: 1 + r.next()%16}
	depth := r.next() % 4
	p.branch, p.burst, p.big = 1+r.next()%4, r.next()%41, r.next()&1 == 1
	p.work = sim.Time(r.next()) * planUnit
	next := func() hop {
		v := r.next()
		h := hop{kind: hopKind(v % 3)}
		if h.kind != hopToken {
			h.at = earth.NodeID(v / 3 % p.nodes)
		}
		return h
	}
	for range p.spread {
		p.hops = append(p.hops, next())
	}
	for range depth {
		p.levels = append(p.levels, next())
	}
	return p
}

// encodeProg is decodeProg's inverse.
func encodeProg(p progShape) []byte {
	big := byte(0)
	if p.big {
		big = 1
	}
	b := []byte{byte(p.nodes - 1), byte(p.spread - 1), byte(len(p.levels)), byte(p.branch - 1),
		byte(p.burst), big, byte(p.work / planUnit)}
	for _, h := range slices.Concat(p.hops, p.levels) {
		b = append(b, byte(h.kind)+3*byte(h.at))
	}
	return b
}
