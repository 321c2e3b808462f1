package rewrite

import (
	"strings"
	"testing"
)

// FuzzNewSystem: NewSystem takes its equations from users, here one per
// line as "u=v" (a line without "=" equates the word with ε). It must
// never panic; it rejects exactly the inputs whose equations are all
// trivial; and what it accepts is one valid, shortlex-oriented rule per
// non-trivial equation, in input order, made of that equation's two words.
func FuzzNewSystem(f *testing.F) {
	for _, seed := range []string{"aa=\nbb=\nababab=", "ba=ab", "a=a", "", "=", "b=a\na=b", "x\n\n=y",
		"abc=abd", "\xff=\x00", "aaaa=bbb\nbbb=aaaa"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var eqs [][2]string
		for _, line := range strings.Split(in, "\n") {
			u, v, _ := strings.Cut(line, "=")
			eqs = append(eqs, [2]string{u, v})
		}
		s, err := NewSystem(eqs)
		var want []Rule
		for _, eq := range eqs {
			if eq[0] != eq[1] {
				want = append(want, Rule{L: eq[0], R: eq[1]})
				if Shortlex(eq[0], eq[1]) < 0 {
					want[len(want)-1] = Rule{L: eq[1], R: eq[0]}
				}
			}
		}
		if (err != nil) != (len(want) == 0) {
			t.Fatalf("NewSystem(%q): error %v with %d non-trivial equations", eqs, err, len(want))
		}
		if err != nil {
			return
		}
		if len(s.Rules) != len(want) {
			t.Fatalf("NewSystem(%q): %d rules, want %d", eqs, len(s.Rules), len(want))
		}
		for i, r := range s.Rules {
			if err := r.Validate(); err != nil || Shortlex(r.L, r.R) != 1 || r != want[i] {
				t.Fatalf("NewSystem(%q): rule %d is %v (Validate: %v), want %v", eqs, i, r, err, want[i])
			}
		}
	})
}
