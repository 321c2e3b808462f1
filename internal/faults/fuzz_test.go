package faults

import (
	"reflect"
	"testing"
)

// FuzzParsePlan: the -faults grammar is user input. Parse must never
// panic, and whatever it accepts must survive String: the rendered spec
// parses back to the same plan and renders identically (the canonical
// form earthsim records in its stats JSON).
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"", "none",
		"drop=0.05,dup=0.02,reorder=0.1,window=200us,seed=7",
		"pause=2@1ms-2ms", "pause=*@500us-600us",
		"degrade=*@0-5msx4", "degrade=3@1ms-2msx8",
		"crash=2@1ms", "crash=0@1ms,crash=1@2ms",
		"partition=0.1|2.3@1ms-2ms", "corrupt=0.01",
		"drop=0.02,dup=0.02,reorder=0.05,corrupt=0.01,crash=3@2ms,partition=0.1.2.3.4.5|6.7@1ms-6ms",
		"partition=3.1|2@1ms-2ms,partition=0|4@1ms-2ms",
		"drop=NaN", "drop=1", "seed=-9", "window=1h", "crash=*@1ms", "pause=1@2ms-1ms",
		"partition=0|0@1ms-2ms", "degrade=1@0-1msx0.5", "drop", "=", ",,", "drop=0x1p-4",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		canon := p.String()
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its rendering %q is rejected: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v", spec, p, canon, q)
		}
		if again := q.String(); again != canon {
			t.Fatalf("rendering is not canonical: %q then %q", canon, again)
		}
	})
}
