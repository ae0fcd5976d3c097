package sidebyside

import (
	"context"
	"testing"

	"hyperq/internal/config"
	"hyperq/internal/persist"
	"hyperq/internal/pgdb"
)

// parityEngine is one engine configuration every parity test runs.
type parityEngine struct {
	name string
	exec pgdb.ExecMode
	// cold runs the engine over the durable store: each dataset is
	// checkpointed and cold-reopened, so the vector paths read evicted
	// stubs and fault columns back through the persist codec
	cold bool
}

// parityEngines are the compiled engine at its defaults, the retained
// interpreter, and the compiled engine's vector paths over cold-reopened
// segments, under the memory budget of qdiff's tightest leg.
var parityEngines = []parityEngine{
	{"compiled", pgdb.ExecCompiled, false},
	{"interpreted", pgdb.ExecInterpreted, false},
	{"vectorized", pgdb.ExecCompiled, true},
}

// engine returns m's engine settings, its data under a fresh directory of t.
func (m parityEngine) engine(t *testing.T) config.Engine {
	e := config.Defaults()
	if m.cold {
		e.DataDir = t.TempDir()
		e.Sync = persist.SyncNone
		e.MemBudget = 65536
	}
	return e
}

// TestCorpusParityBothEngines replays every checked-in qdiff reproducer
// through each parity configuration. All must MATCH the kdb+ reference —
// which also proves the configurations agree with each other on every
// query the corpus pinned down.
func TestCorpusParityBothEngines(t *testing.T) {
	entries, err := LoadCorpus("testdata/qdiff")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries under testdata/qdiff")
	}
	for _, m := range parityEngines {
		for _, e := range entries {
			t.Run(m.name+"/"+e.Name, func(t *testing.T) {
				r, err := ReplayEntryEngine(context.Background(), e, m.engine(t), m.exec)
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
// engine's vector paths and their reads of cold segments cannot hide: the
// stream that is clean under one must be clean under the others.
func TestFuzzParityBothEngines(t *testing.T) {
	for _, m := range parityEngines {
		t.Run(m.name, func(t *testing.T) {
			cfg := FuzzConfig{Seed: 7, N: 300, Engine: m.engine(t), Exec: m.exec}
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
