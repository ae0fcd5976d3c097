package sqlparse

import "testing"

// FuzzParse feeds arbitrary text to the parser of pgserver's network input:
// Parse and ParseScript must each return statements or an error, never
// panic. The seeds (testdata/fuzz/FuzzParse) are the Hyper-Q translator's
// SQL for the Analytical Workload's 25 queries and the statements of this
// package's tests. Run it with `make fuzz`; `go test` replays the seeds.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if st, err := Parse(src); (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want a statement or an error", src, st, err)
		}
		stmts, err := ParseScript(src)
		if err != nil && stmts != nil {
			t.Fatalf("ParseScript(%q) returned statements beside %v", src, err)
		}
		for _, st := range stmts {
			if st == nil {
				t.Fatalf("ParseScript(%q) returned a nil statement", src)
			}
		}
	})
}
