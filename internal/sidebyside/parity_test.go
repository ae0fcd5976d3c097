package sidebyside

import (
	"context"
	"testing"

	"hyperq/internal/config"
	"hyperq/internal/pgdb"
)

// TestCorpusParityBothEngines replays every checked-in qdiff reproducer
// through the compiled, the retained interpreted, AND the vectorized pgdb
// engine. All must MATCH the kdb+ reference — which also proves the three
// engines agree with each other on every query the corpus pinned down.
func TestCorpusParityBothEngines(t *testing.T) {
	entries, err := LoadCorpus("testdata/qdiff")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries under testdata/qdiff")
	}
	modes := []struct {
		name string
		mode pgdb.ExecMode
	}{
		{"compiled", pgdb.ExecCompiled},
		{"interpreted", pgdb.ExecInterpreted},
		{"vectorized", pgdb.ExecVectorized},
	}
	for _, m := range modes {
		for _, e := range entries {
			t.Run(m.name+"/"+e.Name, func(t *testing.T) {
				r, err := ReplayEntryMode(context.Background(), e, m.mode)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Match {
					t.Fatalf("divergence under %s engine:\n  query: %s\n  diffs: %v\n  note: %s",
						m.name, e.Query, r.Diffs, e.Note)
				}
			})
		}
	}
}

// TestFuzzParityBothEngines runs the same seeded query stream through every
// pgdb engine. Every query must match the kdb+ reference under each, so a
// semantic difference between the compiled, interpreted, and vectorized
// executors cannot hide: the stream that is clean under one engine must be
// clean under the others.
func TestFuzzParityBothEngines(t *testing.T) {
	modes := []struct {
		name string
		mode pgdb.ExecMode
	}{
		{"compiled", pgdb.ExecCompiled},
		{"interpreted", pgdb.ExecInterpreted},
		{"vectorized", pgdb.ExecVectorized},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			rep, err := Fuzz(context.Background(), FuzzConfig{Seed: 7, N: 300, Engine: config.Engine{Exec: m.mode}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Matches != rep.N {
				t.Errorf("%s engine: %d of %d queries matched", m.name, rep.Matches, rep.N)
			}
			for _, c := range rep.Mismatches {
				t.Errorf("%s engine, iteration %d [%s]: %s\n  diffs: %v",
					m.name, c.Iteration, c.Class, c.Query, c.Diffs)
			}
		})
	}
}
