package qcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/serializer"
)

// show renders a skeleton's holes readably: {type} or {type:suffix}.
func show(skel string) string {
	var b strings.Builder
	for i := 0; i < len(skel); i++ {
		if skel[i] != 0 {
			b.WriteByte(skel[i])
			continue
		}
		b.WriteString("{" + qval.TypeName(qval.Type(int8(skel[i+1]))))
		if skel[i+2] != 0 {
			b.WriteString(":" + string(skel[i+2]))
		}
		b.WriteString("}")
		i += 2
	}
	return b.String()
}

func TestLift(t *testing.T) {
	for _, c := range []struct {
		text, skel string
		lits       []string
	}{
		{"select from t where s=`a, x>5", "select from t where s={symbol}, x>{long}", []string{"`a", "5"}},
		// strands keep their length and values in the key
		{"select from t where x in 1 2 3", "select from t where x in 1 2 3", nil},
		{"select from t where s in `a`b", "select from t where s in `a`b", nil},
		{"select from t where x within (2;5)", "select from t where x within ({long};{long})", []string{"2", "5"}},
		// nulls, infinities and zero
		{"select from t where x=0N, y=0n, z<0w, s=`", "select from t where x=0N, y=0n, z<0w, s=`", nil},
		{"select from t where x=0Nd, y<0W, z<0Wj", "select from t where x=0Nd, y<0W, z<0Wj", nil},
		{"select from t where x>0, y>0.0, z>0f, w>0h", "select from t where x>0, y>0.0, z>0f, w>0h", nil},
		// booleans, bytes, chars and strings with backticks and digits
		{"select from t where b=1b, y=0x0a, s like \"a`b 12\", c=\"c\"", "select from t where b=1b, y=0x0a, s like \"a`b 12\", c=\"c\"", nil},
		// every suffix, and the float spelled without one
		{"select from t where a>5h, b>5i, c>5j, d>5e, e>5f, f>5.5, g>5",
			"select from t where a>{short:h}, b>{int:i}, c>{long:j}, d>{real:e}, e>{float:f}, f>{float}, g>{long}",
			[]string{"5h", "5i", "5j", "5e", "5f", "5.5", "5"}},
		// a preserved newline
		{"select from t\nwhere x>5", "select from t\nwhere x>{long}", []string{"5"}},
		// negative literals lift their magnitude; the minus stays
		{"select from t where x>-5", "select from t where x>-{long}", []string{"5"}},
		// dates, times and timestamps lift; months, minutes, seconds and
		// timespans stay, as does the zero date
		{"select from t where d=2024.01.15, tm>09:30:00.000, ts<2024.01.15D09:30:00.000000000",
			"select from t where d={date}, tm>{time}, ts<{timestamp}",
			[]string{"2024.01.15", "09:30:00.000", "2024.01.15D09:30:00.000000000"}},
		{"select from t where m=2024.01m, u>09:30, v>09:30:00, n<0D00:00:01, d=2000.01.01",
			"select from t where m=2024.01m, u>09:30, v>09:30:00, n<0D00:00:01, d=2000.01.01", nil},
		// a cast target lifts; verification rejects its skeleton
		{"select x:`long$Price from t", "select x:{symbol}$Price from t", []string{"`long"}},
		// a sort column stays
		{"`Price xasc select from t where s=`a", "`Price xasc select from t where s={symbol}", []string{"`a"}},
		{"`Size xdesc select from t where x>5", "`Size xdesc select from t where x>{long}", []string{"5"}},
	} {
		l, ok := lift(c.text)
		if !ok {
			t.Errorf("%q: lift failed", c.text)
			continue
		}
		if got := show(l.skel); got != c.skel {
			t.Errorf("%q:\n got skeleton %q\nwant          %q", c.text, got, c.skel)
		}
		var lits []string
		for _, s := range l.slots {
			lits = append(lits, c.text[s.start:s.end])
		}
		if fmt.Sprint(lits) != fmt.Sprint(c.lits) {
			t.Errorf("%q: lifted %q, want %q", c.text, lits, c.lits)
		}
	}
	if _, ok := lift("select from t where s like \"abc"); ok {
		t.Error("a lex error must not lift")
	}
	if _, ok := lift("x=\x00"); ok {
		t.Error("a hole byte outside a string must not lex")
	}
}

func TestLiftSeparatesSuffixesAndTypes(t *testing.T) {
	seen := map[string]string{}
	for _, lit := range []string{"5", "5j", "5i", "5h", "5e", "5f", "5.0", "`a", "2024.01.15", "09:30:00.000"} {
		l, ok := lift("select from t where x>" + lit)
		if !ok {
			t.Fatalf("%s: lift failed", lit)
		}
		if prev, dup := seen[l.skel]; dup {
			t.Errorf("%s and %s share skeleton %q", prev, lit, show(l.skel))
		}
		seen[l.skel] = lit
	}
}

func TestCutTokenBoundary(t *testing.T) {
	tpl := cut("x = 17318 AND y = 7318 AND z = 7318.25 AND w = -7318 AND v = a7318", []string{"7318"})
	wantSegs := []string{"x = 17318 AND y = ", " AND z = 7318.25 AND w = -", " AND v = a7318"}
	if fmt.Sprint(tpl.segs) != fmt.Sprint(wantSegs) || fmt.Sprint(tpl.order) != "[0 0]" {
		t.Fatalf("cut = %q %v, want %q [0 0]", tpl.segs, tpl.order, wantSegs)
	}
	tpl = cut("'hqslot7001'::varchar, 7002, '7001', 7001", []string{"'hqslot7001'::varchar", "7001", "7002"})
	if fmt.Sprint(tpl.order) != "[0 2 1]" {
		t.Fatalf("order = %v, want [0 2 1] (the quoted '7001' is not a literal)", tpl.order)
	}
}

// stubSQL is a translator stand-in: it renders each lifted literal of q
// into a fixed SQL shape.
func stubSQL(q string) string {
	l, _ := lift(q)
	sql := "SELECT * FROM t"
	for i, s := range l.slots {
		lit, _ := serializer.ConstSQL(s.val)
		sql += fmt.Sprintf(" AND c%d = %s", i, lit)
	}
	return sql
}

func TestVerify(t *testing.T) {
	const q = "select from t where s=`a, x>5, y<2.5"
	good := func(q string) (*Entry, error) { return &Entry{SQL: stubSQL(q)}, nil }
	probes := 0
	for _, c := range []struct {
		name      string
		translate func(q string) (*Entry, error)
		keep      bool
	}{
		{"value-independent", good, true},
		{"probes disagree", func(q string) (*Entry, error) {
			probes++
			e, _ := good(q)
			e.SQL += fmt.Sprintf(" LIMIT %d", probes)
			return e, nil
		}, false},
		{"splice differs from the request's SQL", func(q string) (*Entry, error) {
			e, _ := good(q)
			if !strings.Contains(q, "hqslot") {
				e.SQL = strings.Replace(e.SQL, " = 5", " = 5.0", 1) // a branch only 5 takes
			}
			return e, nil
		}, false},
		{"probe errors", func(q string) (*Entry, error) {
			if strings.Contains(q, "hqslot") {
				return nil, errors.New("'hqslot7001")
			}
			return good(q)
		}, false},
		{"probe does not translate", func(q string) (*Entry, error) {
			if strings.Contains(q, "hqslot") {
				return nil, nil
			}
			return good(q)
		}, false},
		{"kind changes", func(q string) (*Entry, error) {
			e, _ := good(q)
			if strings.Contains(q, "hqslot") {
				e.Kind = ScalarSelect
			}
			return e, nil
		}, false},
		{"exec changes", func(q string) (*Entry, error) {
			e, _ := good(q)
			e.IsExec = strings.Contains(q, "hqslot")
			return e, nil
		}, false},
	} {
		l, _ := lift(q)
		own, keep, err := verify(&l, c.translate)
		if err != nil || own == nil {
			t.Errorf("%s: own = %+v, err = %v", c.name, own, err)
			continue
		}
		if c.keep != (keep != rejected) {
			t.Errorf("%s: kept a template = %v, want %v", c.name, keep != rejected, c.keep)
			continue
		}
		if !c.keep {
			continue
		}
		other, _ := lift("select from t where s=`zz, x>123456, y<0.125")
		lits, _ := other.render()
		if sql := keep.tpl.splice(lits); sql != stubSQL(other.text) {
			t.Errorf("%s: splice = %q, want %q", c.name, sql, stubSQL(other.text))
		}
	}
}

func TestVerifyRequestOutcomePassesThrough(t *testing.T) {
	l, _ := lift("select from t where x>5")
	boom := errors.New("boom")
	if own, keep, err := verify(&l, func(string) (*Entry, error) { return nil, boom }); own != nil || keep != nil || err != boom {
		t.Fatalf("failing request: %v %v %v", own, keep, err)
	}
	if own, keep, err := verify(&l, func(string) (*Entry, error) { return nil, nil }); own != nil || keep != nil || err != nil {
		t.Fatalf("uncacheable request: %v %v %v", own, keep, err)
	}
}

func TestTranslateRejectedSkeletonKeysExactText(t *testing.T) {
	c := New(16)
	translations := 0
	// the SQL depends on the value: the template check must fail
	translate := func(_ context.Context, q string) (*Entry, error) {
		translations++
		return &Entry{SQL: fmt.Sprintf("SELECT %d", len(q))}, nil
	}
	for i, q := range []string{"select from t where x>5", "select from t where x>5", "select from t where x>77"} {
		e, _, err := c.Translate(ctx, q, 0, 0, translate)
		if err != nil || e.SQL != fmt.Sprintf("SELECT %d", len(q)) {
			t.Fatalf("request %d: %+v %v", i, e, err)
		}
	}
	st := c.Stats()
	// the first text pays for itself and two probes; the repeat is an
	// exact-text hit; the third text translates under its own key
	if translations != 4 || st.Rejected != 1 || st.Hits != 1 || st.Misses != 2 || st.Entries != 3 || st.Splices != 0 {
		t.Fatalf("translations = %d, stats = %+v", translations, st)
	}
}

func TestTranslateSortedSkeletonSplices(t *testing.T) {
	c := New(16)
	translations := 0
	// the sort column must name a column, as the translator's binder
	// requires: a probe that renamed it would fail and reject the skeleton
	translate := func(_ context.Context, q string) (*Entry, error) {
		translations++
		if !strings.HasPrefix(q, "`Price xasc ") {
			return nil, errors.New("'sort column")
		}
		return &Entry{SQL: stubSQL(q) + ` ORDER BY "Price"`}, nil
	}
	for _, q := range []string{"`Price xasc select from t where s=`a", "`Price xasc select from t where s=`b"} {
		e, _, err := c.Translate(ctx, q, 0, 0, translate)
		if err != nil || e.SQL != stubSQL(q)+` ORDER BY "Price"` {
			t.Fatalf("%s: %+v %v", q, e, err)
		}
	}
	// the first text pays for itself and two probes; the second splices
	if st := c.Stats(); translations != 3 || st.Rejected != 0 || st.Splices != 1 {
		t.Fatalf("translations = %d, stats = %+v", translations, c.Stats())
	}
}
