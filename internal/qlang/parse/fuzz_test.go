package parse

import "testing"

// FuzzQParse feeds arbitrary text to the q parser, which reads every query
// a QIPC client sends hyperq: Parse must return a program or an error, never
// panic. The seeds (testdata/fuzz/FuzzQParse) are the Analytical Workload's
// 25 q texts and the queries of the qdiff corpus
// (internal/sidebyside/testdata/qdiff). Run it with `make fuzz`; `go test`
// replays the seeds.
func FuzzQParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want a program or an error", src, prog, err)
		}
		if prog == nil {
			return
		}
		for _, st := range prog.Stmts {
			if st == nil {
				t.Fatalf("Parse(%q) returned a nil statement", src)
			}
		}
	})
}
