package persist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestDictColumnRoundTrip carries a string column through checkpoint,
// eviction, fault-in and WAL replay. The first date partition ends at row
// 3000, inside segment 0, so that segment's string column arrives as two
// chunks whose dictionaries overlap in part; they must merge entry by entry
// into one dictionary of the segment's distinct non-NULL values, in
// first-appearance order.
func TestDictColumnRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, s, st := openStore(t, dir, Options{Sync: SyncNone, MemBudget: 1})
	mustExec(t, s, "CREATE TABLE t (d date, s varchar, v bigint)")
	var seg0 []string // segment 0's distinct non-NULL values in order
	seen := map[string]bool{}
	insert := func(day string, from, to int, sym func(i int) string) {
		for lo := from; lo < to; lo += 500 {
			vals := make([]string, 0, 500)
			for i := lo; i < min(lo+500, to); i++ {
				cell := "NULL"
				if x := sym(i); x != "NULL" {
					cell = "'" + x + "'"
					if i < 4096 && !seen[x] {
						seen[x] = true
						seg0 = append(seg0, x)
					}
				}
				vals = append(vals, fmt.Sprintf("('%s', %s, %d)", day, cell, i))
			}
			mustExec(t, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		}
	}
	insert("2024-07-14", 0, 3000, func(i int) string {
		switch i % 11 {
		case 4:
			return "NULL"
		case 7:
			return ""
		}
		return fmt.Sprintf("A%d", i%9)
	})
	// day two shares A0..A2 with day one and adds symbols of its own
	insert("2024-07-15", 3000, 9000, func(i int) string { return fmt.Sprintf("%c%d", "AB"[i%2], i%6) })

	queries := []string{
		"SELECT * FROM t",
		"SELECT s, count(*), sum(v) FROM t GROUP BY s",
		"SELECT v FROM t WHERE s = 'A1'",
		"SELECT count(*) FROM t WHERE s < 'B'",
	}
	answers := func() []string {
		out := make([]string, len(queries))
		for i, q := range queries {
			out[i] = fmt.Sprint(mustExec(t, s, q).Rows)
		}
		return out
	}
	want := answers()
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustExec(t, s, "SELECT count(*) FROM t") // afterStmt evicts
	if got := answers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after eviction and fault-in:\n got %v\nwant %v", got, want)
	}
	if snap := st.Stats().Snapshot(); snap.Evictions == 0 {
		t.Fatalf("the budget evicted nothing: %+v", snap)
	}

	before := st.Stats().Snapshot().ChunksDecoded
	seg, err := st.loaderFor("t")(0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().Snapshot().ChunksDecoded - before; n != 2 {
		t.Fatalf("segment 0's string column decoded from %d chunks, want 2 (one per partition)", n)
	}
	if v := seg.Vecs[1]; !reflect.DeepEqual(v.Dict, seg0) {
		t.Fatalf("segment 0 dictionary %q, want %q", v.Dict, seg0)
	}

	// rows past the checkpoint live in the WAL only: a cold reopen replays
	// them into the tail segment's dictionary
	insert("2024-07-16", 9000, 9300, func(i int) string { return fmt.Sprintf("C%d", i%4) })
	want = answers()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, s, st = openStore(t, dir, Options{Sync: SyncNone, MemBudget: 1})
	defer st.Close()
	if !st.ReplayedChanges() {
		t.Fatal("reopen replayed no WAL changes")
	}
	if got := answers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after cold reopen and WAL replay:\n got %v\nwant %v", got, want)
	}
	// the replayed tail takes more appends
	insert("2024-07-16", 9300, 9400, func(i int) string { return fmt.Sprintf("C%d", i%5) })
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after replay: %v", err)
	}
	if got := mustExec(t, s, "SELECT count(*) FROM t WHERE s = 'C4'").Rows; fmt.Sprint(got) != "[[20]]" {
		t.Fatalf("C4 rows after appends to the replayed tail: %v, want [[20]]", got)
	}
}
