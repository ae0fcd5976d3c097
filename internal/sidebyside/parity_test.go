package sidebyside

import (
	"context"
	"testing"

	"hyperq/internal/config"
	"hyperq/internal/pgdb"
)

// parityEngines are the engine configurations every parity test runs:
// the compiled engine at its defaults, the retained interpreter, and the
// compiled engine with its vector access paths forced on — hash indexes at
// any table size (index) — which the tiny generated tables never reach at
// pgdb.DefaultIndexMinRows.
func parityEngines() []struct {
	name  string
	exec  pgdb.ExecMode
	index bool
} {
	return []struct {
		name  string
		exec  pgdb.ExecMode
		index bool
	}{
		{"compiled", pgdb.ExecCompiled, false},
		{"interpreted", pgdb.ExecInterpreted, false},
		{"vectorized", pgdb.ExecCompiled, true},
	}
}

// TestCorpusParityBothEngines replays every checked-in qdiff reproducer
// through the compiled engine, the retained interpreter, and the compiled
// engine with indexes forced on. All must MATCH the kdb+ reference — which
// also proves the configurations agree with each other on every query the
// corpus pinned down.
func TestCorpusParityBothEngines(t *testing.T) {
	entries, err := LoadCorpus("testdata/qdiff")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries under testdata/qdiff")
	}
	for _, m := range parityEngines() {
		for _, e := range entries {
			t.Run(m.name+"/"+e.Name, func(t *testing.T) {
				r, err := ReplayEntryEngine(context.Background(), e, config.Defaults(), m.exec, m.index)
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
// parity configuration. Every query must match the kdb+ reference under
// each, so a semantic difference between the interpreter, the compiled
// engine's vector paths and its index access paths cannot hide: the stream
// that is clean under one must be clean under the others. The indexed leg
// also builds each table's index mid-load, so DML maintains a live index
// (FuzzConfig.Index).
func TestFuzzParityBothEngines(t *testing.T) {
	for _, m := range parityEngines() {
		t.Run(m.name, func(t *testing.T) {
			cfg := FuzzConfig{Seed: 7, N: 300, Engine: config.Defaults(), Exec: m.exec, Index: m.index}
			rep, err := Fuzz(context.Background(), cfg)
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
