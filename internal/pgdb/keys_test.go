package pgdb

import (
	"math"
	"testing"
)

// TestKeysDoNotCollide: two rows whose strings differ only in where a
// separator-like ';' falls must stay two groups, two DISTINCT rows and no
// join match, in both engines and on both the fused and the row-path
// grouping.
func TestKeysDoNotCollide(t *testing.T) {
	for _, mode := range []ExecMode{ExecCompiled, ExecInterpreted} {
		db := NewDB()
		db.SetExecMode(mode)
		s := db.NewSession()
		mustExec(t, s, "CREATE TABLE l (a varchar, b varchar)")
		mustExec(t, s, "CREATE TABLE r (a varchar, b varchar)")
		mustExec(t, s, "INSERT INTO l VALUES ('x;string:y', 'z'), ('x', 'y;string:z')")
		mustExec(t, s, "INSERT INTO r VALUES ('x', 'y;string:z')")
		for _, q := range []struct {
			sql  string
			rows int
		}{
			{"SELECT a, b, count(*) FROM l GROUP BY a, b", 2},                                         // fused grouping
			{"SELECT a, b, median(1) FROM l GROUP BY a, b", 2},                                        // row-path grouping
			{"SELECT a, b FROM (SELECT a, b FROM l UNION ALL SELECT a, b FROM l) u GROUP BY a, b", 2}, // grouping boxed rows
			{"SELECT l.a FROM l JOIN r ON l.a = r.a AND l.b = r.b", 1},                                // multi-key hash join
		} {
			if got := len(mustExec(t, s, q.sql).Rows); got != q.rows {
				t.Errorf("mode %v: %s returned %d rows, want %d", mode, q.sql, got, q.rows)
			}
		}
	}
}

// TestAppendKeyCellMatchesKeyString: the fused path's vector-cell encoding
// must be byte-identical to keyString over the boxed cell for every vector
// kind, so both paths partition rows the same way.
func TestAppendKeyCellMatchesKeyString(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, vals := range [][]any{
		{int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64), nil, int64(7)},
		{0.0, negZero, math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1), nil, 1.5},
		{"", "a;b", "x;string:y", nil, "\x00N;"},
		{true, false, nil},
		// mixed kinds degrade the vector to boxed storage
		{int64(2), 2.0, "2", true, nil, math.NaN(), negZero},
	} {
		var v colVec
		for i, x := range vals {
			v.appendVal(x, i)
		}
		for i, x := range vals {
			if got, want := string(appendKeyCell(nil, &v, i)), keyString([]any{x}); got != want {
				t.Errorf("kind %d cell %d (%v): appendKeyCell %q, keyString %q", v.kind, i, x, got, want)
			}
		}
	}
	// the encoding's equalities: one NaN key, two zero keys, type-tagged
	// numbers
	for _, c := range []struct {
		a, b any
		same bool
	}{
		{math.NaN(), math.Float64frombits(0x7ff8000000000001), true},
		{0.0, math.Copysign(0, -1), false},
		{int64(2), 2.0, false},
		{"1", int64(1), false},
	} {
		if same := keyString([]any{c.a}) == keyString([]any{c.b}); same != c.same {
			t.Errorf("keyString(%v) == keyString(%v) is %v, want %v", c.a, c.b, same, c.same)
		}
	}
}
