// Package rewrite implements Knuth-Bendix completion for string rewriting
// systems. The paper names it as the second instance of the completion
// pattern behind its Gröbner application: "the Knuth-Bendix algorithm
// (also investigated in [Yelick95]) used in theorem provers operates
// similarly on rewrite rules". The structure is indeed the same: critical
// pairs form the work queue, a reduction of a pair either resolves to
// nothing or extends the shared rule set, and the processing order
// changes the amount of work.
//
// Words are strings over a byte alphabet; rules are oriented by the
// shortlex order (shorter first, then lexicographic), which guarantees
// termination of rewriting. Completion itself may diverge for some
// inputs, so the engine takes hard limits and reports failure.
package rewrite

import (
	"fmt"
	"sort"
	"strings"
)

// Shortlex compares two words: shorter words are smaller; equal lengths
// compare lexicographically. Returns -1, 0, +1.
func Shortlex(a, b string) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	return strings.Compare(a, b)
}

// Rule is an oriented rewrite rule L -> R with L > R in shortlex.
type Rule struct {
	L, R string
}

// Validate reports a malformed rule.
func (r Rule) Validate() error {
	if r.L == "" {
		return fmt.Errorf("rewrite: empty left-hand side")
	}
	if Shortlex(r.L, r.R) != 1 {
		return fmt.Errorf("rewrite: rule %q -> %q not reducing under shortlex", r.L, r.R)
	}
	return nil
}

func (r Rule) String() string {
	rhs := r.R
	if rhs == "" {
		rhs = "ε"
	}
	return fmt.Sprintf("%s -> %s", r.L, rhs)
}

// Orient turns an equation u = v into a rule (larger side first); it
// returns ok=false when the words are equal.
func Orient(u, v string) (Rule, bool) {
	switch Shortlex(u, v) {
	case 1:
		return Rule{L: u, R: v}, true
	case -1:
		return Rule{L: v, R: u}, true
	}
	return Rule{}, false
}

// System is a set of rewrite rules.
type System struct {
	Rules []Rule
}

// NewSystem builds a system from equations (pairs of equal words),
// orienting each; trivial equations are dropped. It returns an error for
// rules that cannot be oriented into a terminating system (never happens
// under shortlex) or empty equations.
func NewSystem(equations [][2]string) (*System, error) {
	s := &System{}
	for _, eq := range equations {
		r, ok := Orient(eq[0], eq[1])
		if !ok {
			continue
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		s.Rules = append(s.Rules, r)
	}
	if len(s.Rules) == 0 {
		return nil, fmt.Errorf("rewrite: no non-trivial equations")
	}
	return s, nil
}

// rewriteOnce applies the first applicable rule at the leftmost position;
// reports whether a rewrite happened.
func rewriteOnce(w string, rules []Rule) (string, bool) {
	for i := 0; i < len(w); i++ {
		for _, r := range rules {
			if r.L == "" {
				continue
			}
			if strings.HasPrefix(w[i:], r.L) {
				return w[:i] + r.R + w[i+len(r.L):], true
			}
		}
	}
	return w, false
}

// NormalForm rewrites w to an irreducible word and reports the number of
// rewrite steps (the task-grain measure, like poly.ReduceStats).
func (s *System) NormalForm(w string) (string, int) {
	steps := 0
	for {
		next, ok := rewriteOnce(w, s.Rules)
		if !ok {
			return w, steps
		}
		w = next
		steps++
	}
}

// Reduces reports whether the two words have the same normal form.
func (s *System) Reduces(u, v string) bool {
	nu, _ := s.NormalForm(u)
	nv, _ := s.NormalForm(v)
	return nu == nv
}

// CriticalPair is a superposition of two rules: Word reduces two
// different ways, to U (via the first rule) and V (via the second).
type CriticalPair struct {
	Word string
	U, V string
	// Seq is a creation stamp for FIFO processing.
	Seq int
}

// CriticalPairs returns all critical pairs between rules a and b
// (including self-overlaps when a == b is intended: pass the same rule
// twice).
//
// Two kinds of superposition exist:
//
//   - overlap: a proper suffix of a.L equals a proper prefix of b.L;
//     the superposition is a.L merged with b.L on the overlap.
//   - containment: b.L occurs inside a.L.
func CriticalPairs(a, b Rule) []CriticalPair {
	var out []CriticalPair
	// Overlaps: suffix of a.L = prefix of b.L, length 1..min-1.
	max := len(a.L)
	if len(b.L) < max {
		max = len(b.L)
	}
	for k := 1; k < max; k++ {
		if a.L[len(a.L)-k:] == b.L[:k] {
			// w = a.L + b.L[k:]
			w := a.L + b.L[k:]
			u := a.R + b.L[k:]          // reduce the a.L prefix
			v := a.L[:len(a.L)-k] + b.R // reduce the b.L suffix
			out = append(out, CriticalPair{Word: w, U: u, V: v})
		}
	}
	// Containment: b.L inside a.L (strictly smaller).
	if len(b.L) < len(a.L) {
		for i := 0; i+len(b.L) <= len(a.L); i++ {
			if a.L[i:i+len(b.L)] == b.L {
				w := a.L
				u := a.R
				v := a.L[:i] + b.R + a.L[i+len(b.L):]
				out = append(out, CriticalPair{Word: w, U: u, V: v})
			}
		}
	}
	return out
}

// Completion bounds: Complete gives up, reporting possible divergence,
// when the rule set grows beyond maxRules or after maxPairs pair
// reductions.
const (
	maxRules = 512
	maxPairs = 100000
)

// Trace records the completion's work profile (the Table 2 analogues).
type Trace struct {
	PairsProcessed int
	RulesAdded     int
	RewriteSteps   int
	PerPair        []int
}

// Complete runs Knuth-Bendix completion and returns a confluent,
// interreduced system equivalent to the input, or an error when the
// completion bounds are hit (possible divergence).
func Complete(s *System) (*System, *Trace, error) {
	return complete(s, maxRules, maxPairs)
}

// complete is Complete under the given bounds.
func complete(s *System, maxRules, maxPairs int) (*System, *Trace, error) {
	tr := &Trace{}
	rules := append([]Rule(nil), s.Rules...)

	var queue []CriticalPair
	seq := 0
	addPairs := func(i, j int) {
		for _, cp := range CriticalPairs(rules[i], rules[j]) {
			cp.Seq = seq
			seq++
			queue = append(queue, cp)
		}
		if i != j {
			for _, cp := range CriticalPairs(rules[j], rules[i]) {
				cp.Seq = seq
				seq++
				queue = append(queue, cp)
			}
		}
	}
	for i := range rules {
		for j := 0; j <= i; j++ {
			addPairs(i, j)
		}
	}

	work := &System{}
	for len(queue) > 0 {
		if tr.PairsProcessed >= maxPairs {
			return nil, tr, fmt.Errorf("rewrite: pair limit %d exceeded", maxPairs)
		}
		// Smallest superposition first (the "goodness" heuristic: short
		// words resolve cheaply and keep rules small).
		best := 0
		for i := 1; i < len(queue); i++ {
			if Shortlex(queue[i].Word, queue[best].Word) < 0 {
				best = i
			}
		}
		cp := queue[best]
		queue[best] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		work.Rules = rules
		nu, su := work.NormalForm(cp.U)
		nv, sv := work.NormalForm(cp.V)
		tr.PairsProcessed++
		tr.RewriteSteps += su + sv
		tr.PerPair = append(tr.PerPair, su+sv)
		if nu == nv {
			continue
		}
		rule, ok := Orient(nu, nv)
		if !ok {
			continue
		}
		rules = append(rules, rule)
		tr.RulesAdded++
		if len(rules) > maxRules {
			return nil, tr, fmt.Errorf("rewrite: rule limit %d exceeded", maxRules)
		}
		n := len(rules) - 1
		for i := 0; i <= n; i++ {
			addPairs(i, n)
		}
	}

	out := &System{Rules: rules}
	return Interreduce(out), tr, nil
}

// Interreduce normalises a confluent system: every rule's sides are
// reduced by the other rules, subsumed rules are dropped, and the result
// is sorted — the canonical presentation (unique for a given congruence
// and order).
func Interreduce(s *System) *System {
	rules := append([]Rule(nil), s.Rules...)
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(rules); i++ {
			others := &System{Rules: append(append([]Rule(nil), rules[:i]...), rules[i+1:]...)}
			nl, _ := others.NormalForm(rules[i].L)
			nr, _ := others.NormalForm(rules[i].R)
			if nl == rules[i].L && nr == rules[i].R {
				continue
			}
			changed = true
			if r, ok := Orient(nl, nr); ok {
				rules[i] = r
			} else {
				rules = append(rules[:i], rules[i+1:]...)
				i--
			}
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if c := Shortlex(rules[i].L, rules[j].L); c != 0 {
			return c < 0
		}
		return Shortlex(rules[i].R, rules[j].R) < 0
	})
	return &System{Rules: rules}
}

// IsConfluent verifies local confluence: every critical pair of the
// system resolves to a common normal form (with Newman's lemma and
// shortlex termination this implies confluence).
//
//unref:allow test oracle: the critical-pair check every completion test runs
func (s *System) IsConfluent() bool {
	for i := range s.Rules {
		for j := range s.Rules {
			for _, cp := range CriticalPairs(s.Rules[i], s.Rules[j]) {
				if !s.Reduces(cp.U, cp.V) {
					return false
				}
			}
		}
	}
	return true
}

// EnumerateNormalForms lists all irreducible words over the alphabet up
// to the given length, in shortlex order. For a convergent presentation
// of a finite monoid these are exactly the element representatives.
func (s *System) EnumerateNormalForms(alphabet string, maxLen int) []string {
	var out []string
	var cur []byte
	var rec func(depth int)
	irreducible := func(w string) bool {
		_, steps := s.NormalForm(w)
		return steps == 0
	}
	rec = func(depth int) {
		w := string(cur)
		if irreducible(w) {
			out = append(out, w)
		} else {
			return // extensions of a reducible word are reducible
		}
		if depth == maxLen {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			cur = append(cur, alphabet[i])
			rec(depth + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
