package groebner

import (
	"sync"
	"testing"

	"earth/internal/poly"
)

// TestPaperInputsShared: the paper's systems are built once per process.
// First calls from several goroutines at once (run under -race) all get
// the one build; a later call allocates only the slice it returns; the
// systems equal a fresh build of Lazard and Katsura; and a caller that
// appends to its F, or overwrites its slice, leaves every other caller's
// systems as they were.
func TestPaperInputsShared(t *testing.T) {
	saved := paperInputs
	paperInputs = sync.OnceValue(buildPaperInputs)
	defer func() { paperInputs = saved }()

	const callers = 4
	got := make([][]NamedInput, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = PaperInputs()
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		for j := range got[0] {
			if got[i][j].Ring != got[0][j].Ring || &got[i][j].F[0] != &got[0][j].F[0] {
				t.Errorf("caller %d got its own build of %s", i, got[0][j].Name)
			}
		}
	}

	if n := testing.AllocsPerRun(20, func() { _ = PaperInputs() }); n > 1 {
		t.Errorf("PaperInputs makes %v allocations once built, want at most 1", n)
	}

	lr := LazardRing(poly.GrLex{}, 32003)
	k4r := KatsuraRing(4, poly.GrLex{}, 32003)
	k5r := KatsuraRing(5, poly.GrLex{}, 32003)
	fresh := map[string][]*poly.Poly{
		"Lazard":    Lazard(lr),
		"Katsura-4": Katsura(4, k4r),
		"Katsura-5": Katsura(5, k5r),
	}
	check := func(when string) {
		t.Helper()
		ins := PaperInputs()
		if len(ins) != len(fresh) {
			t.Fatalf("%s: %d inputs, want %d", when, len(ins), len(fresh))
		}
		for _, in := range ins {
			want := fresh[in.Name]
			if len(in.F) != len(want) || cap(in.F) != len(in.F) {
				t.Errorf("%s: %s has len %d cap %d, want len and cap %d", when, in.Name, len(in.F), cap(in.F), len(want))
				continue
			}
			for i := range want {
				if !in.F[i].Equal(want[i]) {
					t.Errorf("%s: %s polynomial %d is %v, want %v", when, in.Name, i, in.F[i], want[i])
				}
			}
		}
	}
	check("shared")

	mine := PaperInputs()
	for i := range mine {
		mine[i].F = append(mine[i].F, mine[i].Ring.ConstInt(1))
		mine[i].Name = "overwritten"
	}
	check("after a caller appended to its copy")
}
