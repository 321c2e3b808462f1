// Knuth-Bendix example: the paper's "other completion procedure". The
// symmetric group S3 is presented by two generators and three relations;
// completion produces a convergent rewriting system whose irreducible
// words are exactly the six group elements, solving the word problem.
// The same completion then runs in parallel on the EARTH runtime.
package main

import (
	"fmt"
	"io"
	"os"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/rewrite"
)

func main() { run(os.Stdout) }

// run is the example, printing to w.
func run(w io.Writer) {
	s, err := rewrite.NewSystem([][2]string{
		{"aa", ""}, {"bb", ""}, {"ababab", ""},
	})
	if err != nil {
		panic(err)
	}
	complete, tr, err := rewrite.Complete(s)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, "convergent system for S3 = <a,b | a², b², (ab)³>:")
	for _, r := range complete.Rules {
		fmt.Fprintln(w, "  ", r)
	}
	fmt.Fprintf(w, "completion: %d pairs processed, %d rules added, %d rewrite steps\n",
		tr.PairsProcessed, tr.RulesAdded, tr.RewriteSteps)

	fmt.Fprintln(w, "group elements (irreducible words):", complete.EnumerateNormalForms("ab", 6))
	fmt.Fprintln(w, "word problem: abab == ba ?", complete.Reduces("abab", "ba"))
	fmt.Fprintln(w, "word problem: ab == ba ?", complete.Reduces("ab", "ba"), "(S3 is non-abelian)")

	rt := simrt.New(earth.Config{Nodes: 6, Seed: 1})
	par, err := rewrite.ParallelComplete(rt, s)
	if err != nil {
		panic(err)
	}
	same := len(par.System.Rules) == len(complete.Rules)
	for i := range complete.Rules {
		if !same || par.System.Rules[i] != complete.Rules[i] {
			same = false
		}
	}
	fmt.Fprintf(w, "parallel completion on 5 workers: identical canonical system: %v (%v)\n",
		same, par.Stats.Elapsed)
}
