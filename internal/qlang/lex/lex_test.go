package lex

import (
	"testing"
	"testing/quick"

	"hyperq/internal/qlang/qval"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	out := make([]Kind, 0, len(toks)-1)
	for _, tk := range toks {
		if tk.Kind == EOF {
			break
		}
		out = append(out, tk.Kind)
	}
	return out
}

func one(t *testing.T, src string) Token {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	if len(toks) != 2 {
		t.Fatalf("Tokenize(%q) = %v, want single token", src, toks)
	}
	return toks[0]
}

func TestNumericLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want qval.Value
	}{
		{"1", qval.Long(1)},
		{"42j", qval.Long(42)},
		{"7i", qval.Int(7)},
		{"3h", qval.Short(3)},
		{"2.5", qval.Float(2.5)},
		{"2.5f", qval.Float(2.5)},
		{"1.5e", qval.Real(1.5)},
		{"1b", qval.Bool(true)},
		{"0b", qval.Bool(false)},
		{"0x1f", qval.Byte(0x1f)},
		{"0xdeadbeef", qval.ByteVec{0xde, 0xad, 0xbe, 0xef}},
		{"0N", qval.Long(qval.NullLong)},
		{"0Ni", qval.Int(qval.NullInt)},
		{"0W", qval.Long(qval.InfLong)},
	}
	for _, c := range cases {
		tok := one(t, c.src)
		if tok.Kind != Number {
			t.Errorf("%q: kind = %v, want Number", c.src, tok.Kind)
			continue
		}
		if !qval.EqualValues(tok.Val, c.want) {
			t.Errorf("%q: val = %v (%T), want %v", c.src, tok.Val, tok.Val, c.want)
		}
	}
}

func TestBooleanVectorLiteral(t *testing.T) {
	tok := one(t, "101b")
	want := qval.BoolVec{true, false, true}
	if !qval.EqualValues(tok.Val, want) {
		t.Errorf("101b = %v, want %v", tok.Val, want)
	}
}

func TestTemporalLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want qval.Value
	}{
		{"2024.01.15", qval.MkDate(2024, 1, 15)},
		{"2016.06m", qval.MkMonth(2016, 6)},
		{"09:30", qval.MkMinute(9, 30)},
		{"09:30:15", qval.MkSecond(9, 30, 15)},
		{"09:30:00.250", qval.MkTime(9, 30, 0, 250)},
		{"2024.01.15D09:30:00.000000000", qval.MkTimestamp(2024, 1, 15, 9, 30, 0, 0)},
		{"1D00:00:01", qval.Temporal{T: qval.KTimespan, V: 24*3600*1e9 + 1e9}},
		{"0Nd", qval.Temporal{T: qval.KDate, V: qval.NullLong}},
		{"0Nt", qval.Temporal{T: qval.KTime, V: qval.NullLong}},
		{"0Np", qval.Temporal{T: qval.KTimestamp, V: qval.NullLong}},
	}
	for _, c := range cases {
		tok := one(t, c.src)
		if !qval.EqualValues(tok.Val, c.want) {
			t.Errorf("%q: val = %v, want %v", c.src, tok.Val, c.want)
		}
	}
}

// TestFarDateLiterals: a date literal counts its days exactly however far
// it lies from 2000.01.01; a time.Duration difference saturates about 292
// years out.
func TestFarDateLiterals(t *testing.T) {
	for _, c := range []struct {
		src  string
		days int64
	}{
		{"1700.01.01", -109572},
		{"2400.01.01", 146097},
		{"1600.03.01", -146037},
		{"0001.01.01", -730119},
		{"9999.12.31", 2921939},
	} {
		want := qval.Temporal{T: qval.KDate, V: c.days}
		if tok := one(t, c.src); !qval.EqualValues(tok.Val, want) {
			t.Errorf("%q: val = %v (%#v), want day %d", c.src, tok.Val, tok.Val, c.days)
		}
	}
}

func TestSymbols(t *testing.T) {
	tok := one(t, "`GOOG")
	if tok.Kind != Sym || tok.Val.(qval.Symbol) != "GOOG" {
		t.Errorf("`GOOG = %v %v", tok.Kind, tok.Val)
	}
	// consecutive symbols lex as separate Sym tokens
	ks := kinds(t, "`Symbol`Time")
	if len(ks) != 2 || ks[0] != Sym || ks[1] != Sym {
		t.Errorf("`Symbol`Time kinds = %v", ks)
	}
	// empty symbol
	tok = one(t, "`")
	if tok.Val.(qval.Symbol) != "" {
		t.Errorf("` = %v", tok.Val)
	}
}

func TestStrings(t *testing.T) {
	tok := one(t, `"hello"`)
	if tok.Kind != Str || string(tok.Val.(qval.CharVec)) != "hello" {
		t.Errorf("string = %v %v", tok.Kind, tok.Val)
	}
	tok = one(t, `"a\"b\n"`)
	if string(tok.Val.(qval.CharVec)) != "a\"b\n" {
		t.Errorf("escaped = %q", tok.Val)
	}
	if _, err := Tokenize(`"unterminated`); err == nil {
		t.Error("unterminated string should error")
	}
}

func TestKeywordsAndIdents(t *testing.T) {
	ks := kinds(t, "select Price from trades where Sym=`GOOG")
	want := []Kind{Keyword, Ident, Keyword, Ident, Keyword, Ident, Op, Sym}
	if len(ks) != len(want) {
		t.Fatalf("kinds = %v, want %v", ks, want)
	}
	for i := range ks {
		if ks[i] != want[i] {
			t.Errorf("token %d: %v, want %v", i, ks[i], want[i])
		}
	}
}

func TestNamespacedIdent(t *testing.T) {
	tok := one(t, ".u.upd")
	if tok.Kind != Ident || tok.Text != ".u.upd" {
		t.Errorf(".u.upd = %v %q", tok.Kind, tok.Text)
	}
}

func TestOperatorsAndPunct(t *testing.T) {
	ks := kinds(t, "x:1;y[2]")
	want := []Kind{Ident, Assign, Number, Semi, Ident, LBracket, Number, RBracket}
	for i := range want {
		if i >= len(ks) || ks[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", ks, want)
		}
	}
	if tok := one(t, "::"); tok.Kind != DoubleColon {
		t.Errorf(":: = %v", tok.Kind)
	}
	for _, op := range []string{"<>", "<=", ">=", "~", "+", "-", "*", "%", "&", "|", "#", "_", "?", "@", "$", ",", "^", "!", "="} {
		if tok := one(t, op); tok.Kind != Op || tok.Text != op {
			t.Errorf("%q = %v %q", op, tok.Kind, tok.Text)
		}
	}
}

func TestAdverbs(t *testing.T) {
	toks, err := Tokenize("f each x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != Adverb {
		t.Errorf("each = %v", toks[1].Kind)
	}
	toks, err = Tokenize("x+'y")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != Adverb {
		t.Errorf("' = %v", toks[2].Kind)
	}
}

func TestComments(t *testing.T) {
	ks := kinds(t, "x:1 / trailing comment\ny:2")
	want := []Kind{Ident, Assign, Number, Ident, Assign, Number}
	if len(ks) != len(want) {
		t.Fatalf("kinds with comment = %v", ks)
	}
	ks = kinds(t, "/ whole line comment\nz")
	if len(ks) != 1 || ks[0] != Ident {
		t.Errorf("comment-only line kinds = %v", ks)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("x:1\ny:2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("first token at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[3].Line != 2 || toks[3].Col != 1 {
		t.Errorf("y at %d:%d, want 2:1", toks[3].Line, toks[3].Col)
	}
}

func TestAsOfJoinQueryLexes(t *testing.T) {
	// Example 1 from the paper.
	src := "aj[`Symbol`Time; select Price from trades where Date=SOMEDATE, Symbol in SYMLIST; select Symbol, Time, Bid, Ask from quotes where Date=SOMEDATE]"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("paper Example 1 should lex: %v", err)
	}
	if toks[0].Kind != Ident || toks[0].Text != "aj" {
		t.Errorf("first token = %v", toks[0])
	}
}

func TestLambdaLexes(t *testing.T) {
	src := "f:{[Sym] dt: select Price from trades where Symbol=Sym; :select max Price from dt;}"
	ks := kinds(t, src)
	if ks[0] != Ident || ks[1] != Assign || ks[2] != LBrace {
		t.Errorf("lambda prefix kinds = %v", ks[:3])
	}
	last := ks[len(ks)-1]
	if last != RBrace {
		t.Errorf("lambda should end with RBrace, got %v", last)
	}
}

func TestErrorPositionsReported(t *testing.T) {
	_, err := Tokenize("x:1\n\x01")
	if err == nil {
		t.Fatal("control char should error")
	}
	le, ok := err.(*Error)
	if !ok || le.Line != 2 {
		t.Errorf("error = %v, want line 2", err)
	}
}

// Property: any list of simple long literals joined by ';' round-trips into
// Number/Semi alternation.
func TestPropLongListLexes(t *testing.T) {
	f := func(xs []uint16) bool {
		src := ""
		for i, x := range xs {
			if i > 0 {
				src += ";"
			}
			src += qval.Long(int64(x)).String()
		}
		toks, err := Tokenize(src)
		if err != nil {
			return false
		}
		count := 0
		for _, tk := range toks {
			if tk.Kind == Number {
				count++
			}
		}
		return count == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
