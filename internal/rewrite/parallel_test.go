package rewrite

import (
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
)

func s3System(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem([][2]string{{"aa", ""}, {"bb", ""}, {"ababab", ""}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParallelCompleteMatchesSequential(t *testing.T) {
	s := s3System(t)
	seq, _, err := Complete(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{2, 4, 8} {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 5})
		res, err := ParallelComplete(rt, s)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if !res.System.IsConfluent() {
			t.Fatalf("nodes=%d: result not confluent", nodes)
		}
		// The canonical (interreduced) systems must be identical.
		if len(res.System.Rules) != len(seq.Rules) {
			t.Fatalf("nodes=%d: %d rules vs %d", nodes, len(res.System.Rules), len(seq.Rules))
		}
		for i := range seq.Rules {
			if res.System.Rules[i] != seq.Rules[i] {
				t.Fatalf("nodes=%d: rule %d differs: %v vs %v",
					nodes, i, res.System.Rules[i], seq.Rules[i])
			}
		}
		if res.PairsProcessed == 0 {
			t.Fatalf("nodes=%d: no pairs processed", nodes)
		}
	}
}

func TestParallelCompleteNormalFormsS3(t *testing.T) {
	rt := simrt.New(earth.Config{Nodes: 5, Seed: 2})
	res, err := ParallelComplete(rt, s3System(t))
	if err != nil {
		t.Fatal(err)
	}
	nfs := res.System.EnumerateNormalForms("ab", 6)
	if len(nfs) != 6 {
		t.Fatalf("S3 normal forms = %v", nfs)
	}
}

func TestParallelCompleteOnLiveRuntime(t *testing.T) {
	s := s3System(t)
	seq, _, _ := Complete(s)
	rt := livert.New(earth.Config{Nodes: 4, Seed: 3})
	res, err := ParallelComplete(rt, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.System.Rules) != len(seq.Rules) {
		t.Fatalf("live: %d rules vs %d", len(res.System.Rules), len(seq.Rules))
	}
}

func TestParallelCompleteSpeedsUp(t *testing.T) {
	// A larger group: the dihedral-ish <a,b | a^2, b^7, (ab)^2>? Use
	// Z2 x Z7 via commuting generators to keep completion finite and busy.
	s, err := NewSystem([][2]string{
		{"aa", ""}, {"bbbbbbb", ""}, {"ba", "ab"},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(nodes int) float64 {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 1})
		res, err := ParallelComplete(rt, s)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.Elapsed)
	}
	one, eight := run(2), run(8)
	if eight >= one {
		t.Fatalf("no speedup: %v vs %v", eight, one)
	}
}

func TestParallelCompleteTooFewNodes(t *testing.T) {
	rt := simrt.New(earth.Config{Nodes: 1, Seed: 1})
	if _, err := ParallelComplete(rt, s3System(t)); err == nil {
		t.Fatal("1-node run accepted (needs workers + maintenance)")
	}
}

// TestStopRuleOverBooks holds finished, the maintenance node's stop rule,
// to the rule DESIGN.md §4a.3 states, over every combination of the books
// of two workers — waiting, reducing a pair — with a request unresolved
// or not, a pair in the pool or not and an insert queued or not. The rule:
// stop exactly when the pool and the insert queue are empty, no accepted
// request is unresolved, and every worker waits with no pair in flight. A
// request bounced back for re-reduction stays unresolved until its
// withdrawal or its commit is confirmed, so the unresolved rows hold it.
func TestStopRuleOverBooks(t *testing.T) {
	const workers = 2
	for row := range 1 << (2*workers + 3) {
		bit := func(k int) bool { return row>>k&1 == 1 }
		st := &kbState{workers: workers, waiting: make([]bool, workers), inflight: make([]bool, workers)}
		parked, reducing := 0, 0
		for w := range workers {
			st.waiting[w], st.inflight[w] = bit(2*w), bit(2*w+1)
			if st.waiting[w] {
				parked++
			}
			if st.inflight[w] {
				reducing++
			}
		}
		unresolved, pooled, queued := bit(2*workers), bit(2*workers+1), bit(2*workers+2)
		if unresolved {
			st.unresolved = 1
		}
		if pooled {
			st.pool = make([]CriticalPair, 1)
		}
		if queued {
			st.insertQ = make([]kbInsert, 1)
		}
		want := parked == workers && reducing == 0 && !unresolved && !pooled && !queued
		if got := st.finished(); got != want {
			t.Errorf("waiting=%v inflight=%v unresolved=%d pool=%d insertQ=%d: finished() = %v, want %v",
				st.waiting, st.inflight, st.unresolved, len(st.pool), len(st.insertQ), got, want)
		}
	}
}
