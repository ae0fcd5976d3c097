package qcache

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"

	"hyperq/internal/qlang/lex"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/serializer"
)

const sentinelBase = 7001 // slot i of probe p gets sentinel sentinelBase+2i+p

// slot is one lifted literal: its span, its atom and its suffix (0 if none).
type slot struct {
	start, end int
	val        qval.Value
	suffix     byte
}

// lifted is a normalized request split into its skeleton and its literals.
type lifted struct {
	text, skel string
	slots      []slot
}

// lift splits normalized text into its skeleton and its liftable literals
// in one lexer pass with a three-token window, or reports a lex error. A
// hole is a NUL byte, which the lexer rejects outside a string, then the
// literal's type and suffix, so 5, 5j and 5.0 stay distinct keys.
func lift(text string) (lifted, bool) {
	l := lifted{text: text}
	lx := lex.New(text)
	prev := lex.Token{Kind: lex.EOF}
	cur, err := lx.Next()
	var b strings.Builder
	last := 0
	for err == nil && cur.Kind != lex.EOF {
		var next lex.Token
		if next, err = lx.Next(); err != nil {
			break
		}
		// a neighbour of the same kind makes a strand (1 2 3, `a`b), whose
		// length shapes the translation, and the left operand of xasc or
		// xdesc names a sort column
		if suffix, ok := liftable(cur); ok && prev.Kind != cur.Kind && next.Kind != cur.Kind && !sortKey(cur, next) {
			end := cur.Pos + len(cur.Text)
			b.WriteString(text[last:cur.Pos])
			b.Write([]byte{0, byte(cur.Val.Type()), suffix})
			l.slots = append(l.slots, slot{start: cur.Pos, end: end, val: cur.Val, suffix: suffix})
			last = end
		}
		prev, cur = cur, next
	}
	if err != nil {
		return lifted{}, false
	}
	b.WriteString(text[last:])
	l.skel = b.String()
	return l, true
}

// sortKey reports whether t is a symbol naming the sort column of the xasc
// or xdesc that follows it.
func sortKey(t, next lex.Token) bool {
	return t.Kind == lex.Sym && next.Kind == lex.Ident && (next.Text == "xasc" || next.Text == "xdesc")
}

// liftable reports whether a token can leave the cache key, and its suffix:
// the literals no translator branch reads the value of (DESIGN.md lists the
// branches) are non-empty symbols and non-null, finite, non-zero shorts,
// ints, longs, reals, floats, dates, times and timestamps.
func liftable(t lex.Token) (byte, bool) {
	if t.Kind == lex.Sym {
		return 0, t.Val.(qval.Symbol) != ""
	}
	f, _ := qval.AsFloat(t.Val)
	ok := t.Kind == lex.Number && f != 0 && !qval.IsNull(t.Val)
	switch v := t.Val.(type) {
	case qval.Short:
		ok = ok && int16(v) != qval.InfShort
	case qval.Int:
		ok = ok && int32(v) != qval.InfInt
	case qval.Long:
		ok = ok && int64(v) != qval.InfLong
	case qval.Real, qval.Float:
		ok = ok && !math.IsInf(f, 0)
	case qval.Temporal:
		ok = ok && (v.T == qval.KDate || v.T == qval.KTime || v.T == qval.KTimestamp)
	default:
		ok = false
	}
	if c := t.Text[len(t.Text)-1]; ok && strings.IndexByte("hijef", c) >= 0 {
		return c, true
	}
	return 0, ok
}

// probe returns probe p's text, each literal replaced by a sentinel of its
// type and suffix, and the sentinels' renderings; false if it does not lift
// back to l's skeleton, as when a sentinel leaves its type's range.
func (l *lifted) probe(p int) (string, []string, bool) {
	var b strings.Builder
	last := 0
	for i, s := range l.slots {
		b.WriteString(l.text[last:s.start] + sentinel(s, sentinelBase+2*i+p))
		last = s.end
	}
	b.WriteString(l.text[last:])
	pl, ok := lift(b.String())
	if !ok || pl.skel != l.skel {
		return "", nil, false
	}
	lits, ok := pl.render()
	return pl.text, lits, ok
}

// sentinel returns the q source of sentinel n in s's type: n for the
// integers, n.25 for the floats, symbol hqslot<n>, and n days, milliseconds
// or nanoseconds past 2037.01.01 noon for the temporals.
func sentinel(s slot, n int) string {
	num := strconv.Itoa(n)
	day, noon := qval.MkDate(2037, 1, 1).V, int64(12*3600*1000)
	switch v := s.val.(type) {
	case qval.Symbol:
		return "`hqslot" + num
	case qval.Real, qval.Float:
		num += ".25"
	case qval.Temporal:
		switch v.T {
		case qval.KDate:
			return qval.TimeFromDate(day + int64(n)).Format("2006.01.02")
		case qval.KTime:
			return qval.TimeFromTimestamp((noon + int64(n)) * 1e6).Format("15:04:05.000")
		}
		return qval.TimeFromTimestamp(day*86400e9 + noon*1e6 + int64(n)).Format("2006.01.02D15:04:05.000000000")
	}
	return num + strings.TrimRight(string(s.suffix), "\x00")
}

// render returns the SQL rendering of each of l's literals, or false.
func (l *lifted) render() ([]string, bool) {
	lits := make([]string, len(l.slots))
	for i, s := range l.slots {
		lit, err := serializer.ConstSQL(s.val)
		if err != nil {
			return nil, false
		}
		lits[i] = lit
	}
	return lits, true
}

// template is a skeleton's SQL cut at its literals: segs[0] order[0] segs[1]…
type template struct {
	segs  []string
	order []int
}

// cut splits sql at each occurrence of a slot's rendering that stands as a
// whole token, so that 7318 does not match inside 17318 or 7318.25.
func cut(sql string, lits []string) template {
	var t template
	from := 0
	for {
		at, which := -1, -1
		for i, lit := range lits {
			if j := indexToken(sql, lit, from); j >= 0 && (at < 0 || j < at) {
				at, which = j, i
			}
		}
		if at < 0 {
			t.segs = append(t.segs, sql[from:])
			return t
		}
		t.segs = append(t.segs, sql[from:at])
		t.order = append(t.order, which)
		from = at + len(lits[which])
	}
}

// indexToken returns the first index from on of lit in s between non-word
// characters, or -1.
func indexToken(s, lit string, from int) int {
	word := func(i int) bool {
		return i >= 0 && i < len(s) && strings.IndexByte("0123456789_.'abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", s[i]) >= 0
	}
	for {
		j := strings.Index(s[from:], lit)
		if j < 0 {
			return -1
		}
		if at := from + j; !word(at-1) && !word(at+len(lit)) {
			return at
		}
		from += j + 1
	}
}

// splice puts the renderings of a request's literals into t.
func (t *template) splice(lits []string) string {
	var b strings.Builder
	for i, seg := range t.segs {
		b.WriteString(seg)
		if i < len(t.order) {
			b.WriteString(lits[t.order[i]])
		}
	}
	return b.String()
}

// rejected marks a skeleton whose texts keep exact-text keys.
var rejected = &Entry{}

// verify translates the request and two probes of its skeleton. It returns
// the request's entry and the skeleton's: a template if both probes cut
// alike, keep Kind and IsExec, and the request's literals splice back into
// its own SQL; rejected otherwise.
func verify(l *lifted, translate func(q string) (*Entry, error)) (own, keep *Entry, err error) {
	if own, err = translate(l.text); err != nil || own == nil {
		return own, nil, err
	}
	var tpl [2]template
	for p := range tpl {
		text, lits, ok := l.probe(p)
		if !ok {
			return own, rejected, nil
		}
		e, err := translate(text)
		if err != nil || e == nil || e.Kind != own.Kind || e.IsExec != own.IsExec {
			return own, rejected, nil
		}
		tpl[p] = cut(e.SQL, lits)
	}
	lits, ok := l.render()
	if !ok || tpl[0].splice(lits) != own.SQL || !slices.Equal(tpl[0].segs, tpl[1].segs) || !slices.Equal(tpl[0].order, tpl[1].order) {
		return own, rejected, nil
	}
	return own, &Entry{Kind: own.Kind, IsExec: own.IsExec, Cost: own.Cost, tpl: &tpl[0]}, nil
}

// Translate returns the translation of normalized text q under scope and
// meta, running translate on a miss. A text with liftable literals splices
// its skeleton's template, which the leader of its first flight verifies; a
// rejected skeleton sends its texts to exact-text keys. shared reports that
// this caller skipped translation.
func (c *Cache) Translate(ctx context.Context, q string, scope, meta uint64, translate func(ctx context.Context, q string) (*Entry, error)) (e *Entry, shared bool, err error) {
	exact := Key{Query: q, Scope: scope, Meta: meta}
	byText := func(ctx context.Context) (*Entry, error) { return translate(ctx, q) }
	l, ok := lift(q)
	if !ok || len(l.slots) == 0 {
		return c.Do(ctx, exact, byText)
	}
	var own *Entry
	e, shared, err = c.Do(ctx, Key{Query: l.skel, Scope: scope, Meta: meta, Skeleton: true}, func(ctx context.Context) (*Entry, error) {
		a, keep, err := verify(&l, func(q string) (*Entry, error) { return translate(ctx, q) })
		if err == nil {
			err = ctx.Err() // a probe cut short by the context proves nothing
		}
		if err != nil {
			return nil, err
		}
		own = a
		if keep == rejected {
			c.mu.Lock()
			c.put(exact, own)
			c.rejected++
			c.mu.Unlock()
		}
		return keep, nil
	})
	switch {
	case err != nil || e == nil:
		return nil, shared, err
	case own != nil:
		return own, false, nil
	case e != rejected:
		if lits, ok := l.render(); ok {
			c.mu.Lock()
			c.splices++
			c.mu.Unlock()
			return &Entry{SQL: e.tpl.splice(lits), Kind: e.Kind, IsExec: e.IsExec, Cost: e.Cost}, true, nil
		}
	}
	return c.Do(ctx, exact, byText)
}
