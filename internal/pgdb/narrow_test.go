package pgdb

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestDeclinedWhereBoxesColumnsRead: a WHERE that does not lower (here a
// comparison of two columns) boxes, in both engines, only the columns its
// block reads. The results match the walker's, and a query reading two
// columns of a 400-column table allocates about what it does over a
// 4-column table of the same rows: the cost follows the columns read, not
// the table's width.
func TestDeclinedWhereBoxesColumnsRead(t *testing.T) {
	const rows = 1000
	table := func(name string, width int) []string {
		defs := []string{"a bigint", "b bigint"}
		for c := 2; c < width; c++ {
			defs = append(defs, fmt.Sprintf("c%d bigint", c))
		}
		stmts := []string{fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(defs, ", "))}
		for lo := 0; lo < rows; lo += 100 {
			var vals []string
			for i := lo; i < lo+100; i++ {
				row := []string{strconv.Itoa(i % 37), strconv.Itoa(i % 41)}
				for c := 2; c < width; c++ {
					row = append(row, strconv.Itoa(i*c))
				}
				vals = append(vals, "("+strings.Join(row, ", ")+")")
			}
			stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
		}
		return stmts
	}
	setup := append(table("wide", 400), table("narrow", 4)...)
	for _, q := range []string{
		"SELECT a, b FROM wide WHERE a < b",
		"SELECT c3, a FROM wide WHERE a < b AND c3 > 10",
		"SELECT a, count(*) AS n, sum(c399) AS s FROM wide WHERE a < b GROUP BY a",
		"SELECT * FROM narrow WHERE a < b",
		"SELECT w.a, n.b FROM wide w JOIN narrow n ON w.c2 = n.c2 WHERE w.a < n.b",
		"SELECT a FROM wide w JOIN narrow n ON w.c2 = n.c2 WHERE w.a < n.b",
	} {
		requireModeParity(t, setup, q)
	}
	for _, mode := range []ExecMode{ExecCompiled, ExecInterpreted} {
		db := NewDB()
		db.SetExecMode(mode)
		s := db.NewSession()
		for _, stmt := range setup {
			if _, err := s.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		cost := func(table string) uint64 {
			sql := "SELECT a, b FROM " + table + " WHERE a < b"
			if _, err := s.Exec(sql); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Exec(sql)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		fallbacks := db.idxStats.FallbackWhere.Load()
		wide, narrow := cost("wide"), cost("narrow")
		if mode == ExecCompiled && db.idxStats.FallbackWhere.Load() == fallbacks {
			t.Fatal("the WHERE lowered; the test needs one that declines")
		}
		if wide > 2*narrow+64<<10 {
			t.Errorf("mode %d: reading 2 columns allocates %d bytes over 400 columns, %d over 4", mode, wide, narrow)
		}
	}
}
