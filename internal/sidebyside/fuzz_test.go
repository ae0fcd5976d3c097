package sidebyside

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hyperq/internal/config"
)

// TestCorpusReplays runs every checked-in qdiff reproducer through both
// engines. Each file documents a divergence that qdiff found and that was
// then fixed — every entry must now MATCH.
func TestCorpusReplays(t *testing.T) {
	entries, err := LoadCorpus("testdata/qdiff")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries under testdata/qdiff")
	}
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			r, err := ReplayEntry(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Match {
				t.Fatalf("regressed divergence:\n  query: %s\n  diffs: %v\n  note: %s",
					e.Query, r.Diffs, e.Note)
			}
		})
	}
}

// TestFuzzSmoke is the deterministic-seed qdiff run wired into go test: a
// short fuzz that must come back with zero divergences. A failure here means
// a semantic regression between the interp reference and the Hyper-Q -> SQL
// pipeline; reproduce with `go run ./cmd/qdiff -seed 1 -n 200 -shrink`.
func TestFuzzSmoke(t *testing.T) {
	rep, err := Fuzz(context.Background(), FuzzConfig{Seed: 1, N: 200, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != rep.N {
		t.Errorf("%d of %d queries matched", rep.Matches, rep.N)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("iteration %d [%s]: %s\n  diffs: %v", m.Iteration, m.Class, m.Query, m.Diffs)
	}
}

// TestFuzzClosesFrameworks: every framework a run opens — one per reload —
// ends its in-process gateway and the server goroutine behind it, so a run
// leaves no more goroutines than it found.
func TestFuzzClosesFrameworks(t *testing.T) {
	before := runtime.NumGoroutine()
	rep, err := Fuzz(context.Background(), FuzzConfig{Seed: 3, N: 40, ReloadEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != rep.N {
		t.Errorf("%d of %d queries matched", rep.Matches, rep.N)
	}
	// goroutines that already returned may take a moment to be reaped
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("%d goroutines before the run, %d after", before, after)
	}
}

// TestFuzzSmokeDiskBacked is the disk-backed differential smoke: every
// dataset round-trips through splayed column files and a cold reopen, so
// each query reads vectors the persist codec decoded. Reproduce failures
// with `go run ./cmd/qdiff -seed 7 -n 200 -persist -shrink`.
func TestFuzzSmokeDiskBacked(t *testing.T) {
	rep, err := Fuzz(context.Background(), FuzzConfig{
		Seed: 7, N: 200, Shrink: true, Engine: config.Engine{DataDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != rep.N {
		t.Errorf("%d of %d queries matched", rep.Matches, rep.N)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("iteration %d [%s]: %s\n  diffs: %v", m.Iteration, m.Class, m.Query, m.Diffs)
	}
}

// TestFuzzSmokeDiskBackedTightBudget is the disk-backed smoke under a
// deliberately tight memory budget, so segments churn through fault → evict
// → refault during the run. Reproduce failures with `go run ./cmd/qdiff
// -seed 7 -n 120 -persist -mem-budget 65536 -shrink`.
func TestFuzzSmokeDiskBackedTightBudget(t *testing.T) {
	rep, err := Fuzz(context.Background(), FuzzConfig{
		Seed: 7, N: 120, Shrink: true,
		Engine: config.Engine{DataDir: t.TempDir(), MemBudget: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != rep.N {
		t.Errorf("%d of %d queries matched", rep.Matches, rep.N)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("iteration %d [%s]: %s\n  diffs: %v", m.Iteration, m.Class, m.Query, m.Diffs)
	}
}

// TestLoadCorpusRejectsUnknownFields: an entry carrying a field no replayer
// reads — such as the engine mode it was found in — fails to load rather than
// replaying in a different mode than the note describes.
func TestLoadCorpusRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCorpusEntry(dir, &CorpusEntry{Name: "ok", Query: "select from t"}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err != nil {
		t.Fatalf("a well-formed entry: %v", err)
	}
	bad := `{"name": "moded", "query": "select from t", "tables": [], "exec": "interpreted"}`
	if err := os.WriteFile(filepath.Join(dir, "moded.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil || !strings.Contains(err.Error(), `unknown field "exec"`) {
		t.Fatalf("entry with an unread mode field: %v, want an unknown-field error", err)
	}
}
