package earth

import (
	"math/rand"
	"sync"
	"testing"
)

// TestRingAgainstSliceModel drives a Ring and a plain slice with the same
// random pushes, pops and bulk pops, with phases that fill and phases that drain so
// the ring grows several times and wraps around its buffer at every size.
// Elements are pointers: after each step every buffer slot outside the
// live window must be nil, or a popped thread body would stay reachable.
func TestRingAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Ring[*int]
	var model []*int
	growths, wraps := 0, 0
	for step := 0; step < 20000; step++ {
		pushBias := 7 // of 10: filling phase
		if step/1000%2 == 1 {
			pushBias = 3 // draining phase
		}
		switch r := rng.Intn(10); {
		case r < pushBias || len(model) == 0:
			v := new(int)
			*v = step
			before := len(q.buf)
			q.Push(v)
			model = append(model, v)
			if len(q.buf) != before {
				growths++
			}
		case r == 9:
			dst := make([]*int, rng.Intn(5)) // sometimes empty, sometimes longer than the ring
			k := q.PopFrontN(dst)
			if k != min(len(dst), len(model)) {
				t.Fatalf("step %d: PopFrontN took %d of %d into %d slots", step, k, len(model), len(dst))
			}
			for i := 0; i < k; i++ {
				if dst[i] != model[i] {
					t.Fatalf("step %d: PopFrontN[%d] = %d, want %d", step, i, *dst[i], *model[i])
				}
			}
			model = model[k:]
		case r%2 == 0:
			if got, want := q.PopFront(), model[0]; got != want {
				t.Fatalf("step %d: PopFront = %d, want %d", step, *got, *want)
			}
			model = model[1:]
		default:
			if got, want := q.PopBack(), model[len(model)-1]; got != want {
				t.Fatalf("step %d: PopBack = %d, want %d", step, *got, *want)
			}
			model = model[:len(model)-1]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		if q.head+q.n > len(q.buf) {
			wraps++
		}
		live := 0
		for i, p := range q.buf {
			if off := (i - q.head + len(q.buf)) % len(q.buf); off < q.n {
				live++
				if p != model[off] {
					t.Fatalf("step %d: slot %d holds the wrong element", step, i)
				}
			} else if p != nil {
				t.Fatalf("step %d: slot %d outside the live window still holds %d", step, i, *p)
			}
		}
		if live != len(model) {
			t.Fatalf("step %d: %d live slots, want %d", step, live, len(model))
		}
	}
	if growths < 4 || wraps < 100 {
		t.Fatalf("the walk grew the ring %d times and held it wrapped at %d steps: too tame to test anything", growths, wraps)
	}

	// Reset empties, zeroes and keeps the storage.
	for q.Len() < 5 {
		q.Push(new(int))
	}
	kept, first := len(q.buf), &q.buf[0]
	q.Reset()
	if q.Len() != 0 || len(q.buf) != kept || &q.buf[0] != first {
		t.Fatalf("after Reset: Len %d, buffer %d (was %d), same buffer %v", q.Len(), len(q.buf), kept, &q.buf[0] == first)
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("Reset left slot %d set", i)
		}
	}
	v := new(int)
	q.Push(v)
	if q.PopBack() != v || q.Len() != 0 {
		t.Fatal("ring unusable after Reset")
	}
}

// TestFreeList: Get hands out what was given back last, or a new zero
// value on an empty list; no value is handed out twice; Listed shows the
// list oldest first; and goroutines taking and giving back at once (under
// -race) never share a value.
func TestFreeList(t *testing.T) {
	var l FreeList[int]
	a, b := l.Get(), l.Get()
	if a == b || *a != 0 || *b != 0 {
		t.Fatal("an empty list did not make distinct zero values")
	}
	l.Put(a)
	l.Put(b)
	if got := l.Listed(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Listed = %v, want [a b]", got)
	}
	if l.Get() != b || l.Get() != a || len(l.Listed()) != 0 {
		t.Fatal("Get did not take the list last in, first out")
	}

	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				v := l.Get()
				if *v != 0 {
					t.Errorf("worker %d took a value still in use (%d)", w, *v)
				}
				*v = w + 1
				*v = 0
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
