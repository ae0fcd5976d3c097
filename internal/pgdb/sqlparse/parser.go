package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError is a syntax error with token position.
type ParseError struct {
	Msg string
	Pos int
}

func (e *ParseError) Error() string { return fmt.Sprintf("sql parse error at %d: %s", e.Pos, e.Msg) }

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.skipSemis()
	if !p.at(TEOF) {
		return nil, p.errf("unexpected trailing input %s", p.tok())
	}
	return stmt, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	var out []Stmt
	for {
		p.skipSemis()
		if p.at(TEOF) {
			break
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, stmt)
	}
	return out, nil
}

type parser struct {
	src  string
	toks []Token
	pos  int
}

func (p *parser) tok() Token { return p.toks[p.pos] }
func (p *parser) at(k TokKind) bool {
	return p.toks[p.pos].Kind == k
}
func (p *parser) atKw(w string) bool {
	t := p.tok()
	return t.Kind == TKeyword && t.Text == w
}
func (p *parser) atOp(s string) bool {
	t := p.tok()
	return t.Kind == TOp && t.Text == s
}
func (p *parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}
func (p *parser) expectKw(w string) error {
	if !p.atKw(w) {
		return p.errf("expected %s, got %s", w, p.tok())
	}
	p.next()
	return nil
}
func (p *parser) expectOp(s string) error {
	if !p.atOp(s) {
		return p.errf("expected %q, got %s", s, p.tok())
	}
	p.next()
	return nil
}
func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...), Pos: p.tok().Pos}
}
func (p *parser) skipSemis() {
	for p.atOp(";") {
		p.next()
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.atKw("SELECT"):
		return p.parseSelect()
	case p.atKw("CREATE"):
		return p.parseCreate()
	case p.atKw("DROP"):
		return p.parseDrop()
	case p.atKw("INSERT"):
		return p.parseInsert()
	default:
		return nil, p.errf("unsupported statement beginning with %s", p.tok())
	}
}

func (p *parser) parseName() (string, error) {
	if !p.at(TIdent) {
		return "", p.errf("expected identifier, got %s", p.tok())
	}
	return p.next().Text, nil
}

// parseQualifiedName parses schema.name or name.
func (p *parser) parseQualifiedName() (schema, name string, err error) {
	first, err := p.parseName()
	if err != nil {
		return "", "", err
	}
	if p.atOp(".") {
		p.next()
		second, err := p.parseName()
		if err != nil {
			return "", "", err
		}
		return first, second, nil
	}
	return "", first, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	if p.atKw("FROM") {
		p.next()
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = tr
	}
	if p.atKw("WHERE") {
		p.next()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.atKw("GROUP") {
		p.next()
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		groupBy, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		s.GroupBy = groupBy
	}
	if p.atKw("UNION") {
		p.next()
		if err := p.expectKw("ALL"); err != nil {
			return nil, err
		}
		right, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		s.Union = right
	}
	if p.atKw("ORDER") {
		p.next()
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		items, err := p.parseOrderItems()
		if err != nil {
			return nil, err
		}
		s.OrderBy = items
	}
	if p.atKw("LIMIT") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	return s, nil
}

func (p *parser) parseOrderItems() ([]OrderItem, error) {
	var out []OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := OrderItem{Expr: e}
		if p.atKw("ASC") {
			p.next()
		} else if p.atKw("DESC") {
			p.next()
			item.Desc = true
		}
		if p.atKw("NULLS") {
			p.next()
			// FIRST/LAST lex as identifiers so they stay usable as the
			// first()/last() toolbox aggregates
			if !p.at(TIdent) || (p.tok().Text != "first" && p.tok().Text != "last") {
				return nil, p.errf("expected FIRST or LAST after NULLS")
			}
			first := p.next().Text == "first"
			item.NullsFirst = &first
		}
		out = append(out, item)
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	return out, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.atOp("*") {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// qualified star: t.*
	if p.at(TIdent) && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == TOp && p.toks[p.pos+2].Text == "*" {
		tbl := p.next().Text
		p.next()
		p.next()
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.atKw("AS") {
		p.next()
		name, err := p.parseName()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = name
	} else if p.at(TIdent) {
		item.Alias = p.next().Text
	}
	return item, nil
}

// parseTableRef parses a table ref and the join chain after it.
func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parseTableRefPrimary()
	if err != nil {
		return nil, err
	}
	for {
		jt, ok, err := p.parseJoinKw()
		if err != nil || !ok {
			return left, err
		}
		right, err := p.parseTableRefPrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		left = &JoinRef{Type: jt, Left: left, Right: right, On: on}
	}
}

// parseTableRefPrimary parses a table ref without consuming a trailing join
// chain (the caller owns the chain).
func (p *parser) parseTableRefPrimary() (TableRef, error) {
	if p.atOp("(") {
		p.next()
		if p.atKw("SELECT") {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			alias := ""
			if p.atKw("AS") {
				p.next()
			}
			if p.at(TIdent) {
				alias = p.next().Text
			}
			return &SubqueryRef{Query: q, Alias: alias}, nil
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return tr, nil
	}
	schema, name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	bt := &BaseTable{Schema: schema, Name: name}
	if p.atKw("AS") {
		p.next()
		alias, err := p.parseName()
		if err != nil {
			return nil, err
		}
		bt.Alias = alias
	} else if p.at(TIdent) {
		bt.Alias = p.next().Text
	}
	return bt, nil
}

// parseJoinKw consumes JOIN or LEFT JOIN, the joins the translator writes,
// and reports its type. RIGHT, FULL and CROSS stay reserved words, so they
// fail here rather than read as a table alias.
func (p *parser) parseJoinKw() (JoinType, bool, error) {
	jt := InnerJoin
	if p.atKw("LEFT") {
		p.next()
		jt = LeftJoin
	} else if !p.atKw("JOIN") {
		return 0, false, nil
	}
	return jt, true, p.expectKw("JOIN")
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	if p.atKw("VIEW") {
		p.next()
		name, err := p.parseName()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		start := p.tok().Pos
		if _, err := p.parseSelect(); err != nil {
			return nil, err
		}
		// the select runs up to the next token; whatever separates the two
		// (a trailing comment included) re-parses to the same statement
		src := strings.TrimRight(p.src[start:p.tok().Pos], " \t\r\n")
		return &CreateViewStmt{Name: name, Source: src}, nil
	}
	temp := false
	if p.atKw("TEMPORARY") || p.atKw("TEMP") {
		p.next()
		temp = true
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Temp: temp, Name: name}
	if p.atKw("AS") {
		p.next()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.AsSelect = sel
		return st, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		cn, err := p.parseName()
		if err != nil {
			return nil, err
		}
		ct, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, ColumnDef{Name: cn, Type: ct})
		if p.atOp(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// parseTypeName accepts a type name, "double precision" included.
func (p *parser) parseTypeName() (string, error) {
	if !p.at(TIdent) && !p.at(TKeyword) {
		return "", p.errf("expected type name, got %s", p.tok())
	}
	name := strings.ToLower(p.next().Text)
	if name == "double" && p.at(TIdent) && p.tok().Text == "precision" {
		p.next()
		name = "double precision"
	}
	return name, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.next() // DROP
	view := false
	if p.atKw("VIEW") {
		view = true
		p.next()
	} else if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	ifEx := false
	if p.atKw("IF") {
		p.next()
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ifEx = true
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	return &DropStmt{View: view, IfExists: ifEx, Name: name}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		row, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.atOp(",") {
			return st, nil
		}
		p.next()
	}
}

// parseExprList parses one or more comma-separated expressions.
func (p *parser) parseExprList() ([]Expr, error) {
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.atOp(",") {
			return out, nil
		}
		p.next()
	}
}

// Expression parsing with standard SQL precedence:
// OR < AND < NOT < comparison/IS/BETWEEN/LIKE < additive (+,-,||) <
// multiplicative (*,/,%) < unary minus < postfix :: < primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKw("OR") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKw("AND") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKw("NOT") {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("=") || p.atOp("<>") || p.atOp("<") || p.atOp(">") || p.atOp("<=") || p.atOp(">="):
			op := p.next().Text
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case p.atKw("IS"):
			p.next()
			not := false
			if p.atKw("NOT") {
				p.next()
				not = true
			}
			if p.atKw("NULL") {
				p.next()
				l = &IsNullExpr{X: l, Not: not}
				continue
			}
			if err := p.expectKw("DISTINCT"); err != nil {
				return nil, err
			}
			if err := p.expectKw("FROM"); err != nil {
				return nil, err
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			op := "IS DISTINCT FROM"
			if not {
				op = "IS NOT DISTINCT FROM"
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case p.atKw("BETWEEN"):
			p.next()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi}
		case p.atKw("LIKE"):
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "LIKE", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") || p.atOp("||") {
		op := p.next().Text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") || p.atOp("%") {
		op := p.next().Text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atOp("-") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	if p.atOp("+") {
		p.next()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atOp("::") {
		p.next()
		t, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		e = &CastExpr{X: e, Type: t}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.tok()
	switch {
	case t.Kind == TNumber:
		p.next()
		return &NumberLit{Text: t.Text}, nil
	case t.Kind == TString:
		p.next()
		return &StringLit{V: t.Text}, nil
	case t.Kind == TParam:
		p.next()
		n, _ := strconv.Atoi(strings.TrimPrefix(t.Text, "$"))
		return &ParamRef{N: n}, nil
	case p.atKw("NULL"):
		p.next()
		return &NullLit{}, nil
	case p.atKw("TRUE"):
		p.next()
		return &BoolLit{V: true}, nil
	case p.atKw("FALSE"):
		p.next()
		return &BoolLit{V: false}, nil
	case p.atKw("CASE"):
		return p.parseCase()
	case p.atKw("CAST"):
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		tn, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &CastExpr{X: x, Type: tn}, nil
	case p.atOp("("):
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errf("unexpected token %s in expression", t)
	}
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	c := &CaseExpr{}
	if !p.atKw("WHEN") {
		return nil, p.errf("expected WHEN after CASE, got %s", p.tok())
	}
	for p.atKw("WHEN") {
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if p.atKw("ELSE") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseIdentExpr handles column refs (possibly qualified) and function
// calls (possibly windowed).
func (p *parser) parseIdentExpr() (Expr, error) {
	name := p.next().Text
	if p.atOp("(") { // function call
		p.next()
		fc := &FuncCall{Name: name}
		if p.atOp("*") {
			p.next()
			fc.Star = true
		} else if !p.atOp(")") {
			args, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			fc.Args = args
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if p.atKw("OVER") {
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			ws := &WindowSpec{}
			if p.atKw("PARTITION") {
				p.next()
				if err := p.expectKw("BY"); err != nil {
					return nil, err
				}
				part, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				ws.PartitionBy = part
			}
			if p.atKw("ORDER") {
				p.next()
				if err := p.expectKw("BY"); err != nil {
					return nil, err
				}
				items, err := p.parseOrderItems()
				if err != nil {
					return nil, err
				}
				ws.OrderBy = items
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			fc.Over = ws
		}
		return fc, nil
	}
	if p.atOp(".") {
		p.next()
		col, err := p.parseName()
		if err != nil {
			return nil, err
		}
		return &ColRef{Table: name, Name: col}, nil
	}
	return &ColRef{Name: name}, nil
}
