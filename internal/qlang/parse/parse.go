// Package parse implements the Q parser. Following the paper's design
// (§3.2.1), the parser is lightweight: it builds an untyped AST and makes no
// attempt to decide whether a name denotes a table, list or scalar — that is
// the binder's job. Expressions are parsed with Q's strict right-to-left
// evaluation order and no operator precedence (§2.2), and the q-sql
// templates (select/exec/update/delete ... by ... from ... where) are
// recognized structurally.
package parse

import (
	"fmt"

	"hyperq/internal/qlang/ast"
	"hyperq/internal/qlang/lex"
	"hyperq/internal/qlang/qval"
)

// Error is a parse error with source position.
type Error struct {
	Msg  string
	Line int
	Col  int
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// infixWords are named verbs that apply infix between two nouns, like
// `x in y` or `t1 lj t2`.
var infixWords = map[string]bool{
	"in": true, "within": true, "like": true, "and": true, "or": true,
	"xasc": true, "xdesc": true, "xkey": true, "xcol": true, "xcols": true,
	"mod": true, "div": true, "union": true, "inter": true, "except": true,
	"cross": true, "vs": true, "sv": true, "asof": true, "bin": true,
	"insert": true, "upsert": true, "lj": true, "ij": true, "uj": true,
	"pj": true, "ej": true, "cor": true, "cov": true, "wavg": true,
	"wsum": true, "mavg": true, "msum": true, "mmax": true, "mmin": true,
	"xbar": true, "take": true, "set": true, "ss": true, "sublist": true,
}

// Parse parses a complete Q program: one or more statements separated by
// semicolons.
func Parse(src string) (*ast.Program, error) {
	toks, err := lex.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	prog := &ast.Program{}
	for !p.at(lex.EOF) {
		if p.at(lex.Semi) {
			p.next()
			continue
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
		if !p.at(lex.Semi) && !p.at(lex.EOF) {
			return nil, p.errf("expected ';' or end of input, got %s", p.tok())
		}
	}
	if len(prog.Stmts) == 0 {
		return nil, p.errf("empty program")
	}
	return prog, nil
}

// ParseExpr parses a single expression and requires the whole input to be
// consumed.
func ParseExpr(src string) (ast.Node, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Stmts) != 1 {
		return nil, fmt.Errorf("expected a single expression, got %d statements", len(prog.Stmts))
	}
	return prog.Stmts[0], nil
}

type parser struct {
	toks []lex.Token
	pos  int
	src  string
}

func (p *parser) tok() lex.Token { return p.toks[p.pos] }
func (p *parser) at(k lex.Kind) bool {
	return p.toks[p.pos].Kind == k
}
func (p *parser) peekKind(d int) lex.Kind {
	if p.pos+d >= len(p.toks) {
		return lex.EOF
	}
	return p.toks[p.pos+d].Kind
}
func (p *parser) next() lex.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.tok()
	return &Error{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

// parseStmt parses one statement: an expression, an assignment, or an
// explicit return (":expr").
func (p *parser) parseStmt() (ast.Node, error) {
	if p.at(lex.Assign) { // leading ':' is an explicit return
		p.next()
		e, err := p.parseExpr(false)
		if err != nil {
			return nil, err
		}
		return &ast.Return{Expr: e}, nil
	}
	return p.parseExpr(false)
}

// parseExpr parses an expression with right-to-left semantics. When noComma
// is set, a top-level ',' terminates the expression (used inside q-sql
// column and where lists, where the comma is a separator, not the join
// operator).
func (p *parser) parseExpr(noComma bool) (ast.Node, error) {
	// prefix operator position: e.g. "-x" (with a space) or "#[2;x]".
	if p.at(lex.Op) {
		op := p.tok()
		// negative literal: '-' immediately adjacent to a number
		if op.Text == "-" && p.peekKind(1) == lex.Number && p.toks[p.pos+1].Pos == op.Pos+1 {
			p.next()
			numTok := p.next()
			neg, err := negateLiteral(numTok.Val)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return p.parsePostfix(&ast.Lit{Val: neg}, noComma)
		}
		p.next()
		if p.at(lex.LBracket) { // projected/bracketed operator call: $[c;t;f]
			args, err := p.parseBracketArgs()
			if err != nil {
				return nil, err
			}
			return p.parsePostfix(&ast.Apply{Fn: &ast.Var{Name: op.Text}, Args: args}, noComma)
		}
		if p.at(lex.Adverb) { // adverb-modified operator as a value: (+/) or +/[..]
			adv := p.next()
			return p.parsePostfix(&ast.AdverbExpr{Adverb: adv.Text, Verb: &ast.Var{Name: op.Text}}, noComma)
		}
		x, err := p.parseExpr(noComma)
		if err != nil {
			return nil, err
		}
		return &ast.Monad{Op: op.Text, X: x}, nil
	}
	noun, err := p.parseNoun(noComma)
	if err != nil {
		return nil, err
	}
	return p.parsePostfix(noun, noComma)
}

// parsePostfix handles everything that may follow a noun: bracket
// application, adverbs, dyadic operators, infix words, assignment and
// monadic juxtaposition.
func (p *parser) parsePostfix(noun ast.Node, noComma bool) (ast.Node, error) {
	for {
		switch {
		case p.at(lex.LBracket):
			args, err := p.parseBracketArgs()
			if err != nil {
				return nil, err
			}
			noun = &ast.Apply{Fn: noun, Args: args}
			continue
		case p.at(lex.Adverb):
			adv := p.next()
			noun = &ast.AdverbExpr{Adverb: adv.Text, Verb: noun}
			continue
		}
		break
	}
	switch {
	case p.at(lex.Op):
		op := p.tok()
		if noComma && op.Text == "," {
			return noun, nil
		}
		// "abs -3": a minus touching a number, preceded by a space, after a
		// function-ish noun reads as application to a negative literal.
		if op.Text == "-" && p.peekKind(1) == lex.Number &&
			p.toks[p.pos+1].Pos == op.Pos+1 && p.spaceBefore(p.pos) && functionish(noun) {
			p.next()
			numTok := p.next()
			neg, err := negateLiteral(numTok.Val)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			arg, err := p.parsePostfix(&ast.Lit{Val: neg}, noComma)
			if err != nil {
				return nil, err
			}
			return &ast.Apply{Fn: noun, Args: []ast.Node{arg}}, nil
		}
		p.next()
		// an adverb directly after a dyadic op modifies the op: x +/ y
		if p.at(lex.Adverb) {
			adv := p.next()
			verb := &ast.AdverbExpr{Adverb: adv.Text, Verb: &ast.Var{Name: op.Text}}
			r, err := p.parseExpr(noComma)
			if err != nil {
				return nil, err
			}
			return &ast.Apply{Fn: verb, Args: []ast.Node{noun, r}}, nil
		}
		r, err := p.parseExpr(noComma)
		if err != nil {
			return nil, err
		}
		return &ast.Dyad{Op: op.Text, L: noun, R: r}, nil
	case p.at(lex.Ident) && infixWords[p.tok().Text]:
		op := p.next()
		r, err := p.parseExpr(noComma)
		if err != nil {
			return nil, err
		}
		return &ast.Dyad{Op: op.Text, L: noun, R: r}, nil
	case p.at(lex.Assign):
		v, ok := noun.(*ast.Var)
		if !ok {
			return nil, p.errf("left side of ':' must be a name, got %s", noun.QString())
		}
		p.next()
		e, err := p.parseExpr(noComma)
		if err != nil {
			return nil, err
		}
		return &ast.Assign{Name: v.Name, Expr: e}, nil
	case p.at(lex.DoubleColon):
		v, ok := noun.(*ast.Var)
		if !ok {
			return nil, p.errf("left side of '::' must be a name, got %s", noun.QString())
		}
		p.next()
		e, err := p.parseExpr(noComma)
		if err != nil {
			return nil, err
		}
		return &ast.Assign{Name: v.Name, Global: true, Expr: e}, nil
	}
	// monadic juxtaposition: "count x", "til 10", "select ... from f[...]"
	if p.startsNoun() {
		arg, err := p.parseExpr(noComma)
		if err != nil {
			return nil, err
		}
		return &ast.Apply{Fn: noun, Args: []ast.Node{arg}}, nil
	}
	return noun, nil
}

func (p *parser) startsNoun() bool {
	switch p.tok().Kind {
	case lex.Ident, lex.Number, lex.Str, lex.Sym, lex.LParen, lex.LBrace, lex.Keyword:
		if p.tok().Kind == lex.Keyword {
			// template-opening keywords and the verb reading of "where"
			// begin a noun; from/by do not. A "where" that separates
			// template clauses is consumed by the template parser before
			// juxtaposition is ever considered.
			switch p.tok().Text {
			case "select", "exec", "update", "delete", "where":
				return true
			}
			return false
		}
		if p.tok().Kind == lex.Ident && infixWords[p.tok().Text] {
			return false
		}
		return true
	default:
		return false
	}
}

// parseNoun parses a primary expression.
func (p *parser) parseNoun(noComma bool) (ast.Node, error) {
	t := p.tok()
	switch t.Kind {
	case lex.Number:
		return p.parseNumberVector(), nil
	case lex.Str:
		p.next()
		return &ast.Lit{Val: t.Val}, nil
	case lex.Sym:
		return p.parseSymbolVector(), nil
	case lex.Ident:
		p.next()
		return &ast.Var{Name: t.Text}, nil
	case lex.LParen:
		return p.parseParen()
	case lex.LBrace:
		return p.parseLambda()
	case lex.Keyword:
		switch t.Text {
		case "select", "exec", "update", "delete":
			return p.parseTemplate()
		case "where":
			// "where" doubles as the monadic verb on boolean masks
			p.next()
			return &ast.Var{Name: "where"}, nil
		}
		return nil, p.errf("unexpected keyword %q", t.Text)
	case lex.DoubleColon:
		p.next()
		return &ast.Lit{Val: qval.Identity}, nil
	default:
		return nil, p.errf("unexpected token %s", t)
	}
}

// parseNumberVector merges juxtaposed numeric literals of one family into a
// vector literal: 1 2 3 or 09:30 09:31.
func (p *parser) parseNumberVector() ast.Node {
	first := p.next()
	vals := []qval.Value{first.Val}
	for {
		if p.at(lex.Number) {
			vals = append(vals, p.next().Val)
			continue
		}
		// adjacent negative numbers inside a vector literal: in "1 -2 3"
		// the '-' touches the digit and is preceded by a space, so Q reads
		// a literal, not a subtraction.
		if p.at(lex.Op) && p.tok().Text == "-" && p.peekKind(1) == lex.Number &&
			p.toks[p.pos+1].Pos == p.tok().Pos+1 && p.spaceBefore(p.pos) {
			p.next()
			num := p.next()
			nv, err := negateLiteral(num.Val)
			if err != nil {
				break
			}
			vals = append(vals, nv)
			continue
		}
		break
	}
	if len(vals) == 1 {
		return &ast.Lit{Val: vals[0]}
	}
	return &ast.Lit{Val: packNumericVector(vals)}
}

// packNumericVector packs juxtaposed numeric literals, promoting mixed
// widths to the widest type so that "1 2f" denotes a float vector as in q.
func packNumericVector(vals []qval.Value) qval.Value {
	uniform := true
	for _, v := range vals[1:] {
		if v.Type() != vals[0].Type() {
			uniform = false
			break
		}
	}
	if uniform {
		return qval.FromAtoms(vals)
	}
	rank := func(t qval.Type) int {
		if t < 0 {
			t = -t
		}
		switch t {
		case qval.KBool:
			return 1
		case qval.KByte:
			return 2
		case qval.KShort:
			return 3
		case qval.KInt:
			return 4
		case qval.KLong:
			return 5
		case qval.KReal:
			return 6
		case qval.KFloat:
			return 7
		default:
			return 0
		}
	}
	widest := qval.Type(0)
	best := 0
	for _, v := range vals {
		if r := rank(v.Type()); r > best {
			best = r
			widest = -v.Type()
		}
	}
	if best == 0 {
		return qval.FromAtoms(vals) // non-numeric mix: general list
	}
	atoms := make([]qval.Value, len(vals))
	for i, v := range vals {
		f, ok := qval.AsFloat(v)
		if !ok {
			return qval.FromAtoms(vals)
		}
		switch widest {
		case qval.KFloat:
			atoms[i] = qval.Float(f)
		case qval.KReal:
			atoms[i] = qval.Real(float32(f))
		case qval.KLong:
			atoms[i] = qval.Long(int64(f))
		case qval.KInt:
			atoms[i] = qval.Int(int32(f))
		case qval.KShort:
			atoms[i] = qval.Short(int16(f))
		default:
			atoms[i] = qval.Long(int64(f))
		}
		if qval.IsNull(v) {
			atoms[i] = qval.Null(widest)
		}
	}
	return qval.FromAtoms(atoms)
}

func (p *parser) spaceBefore(i int) bool {
	t := p.toks[i]
	return t.Pos > 0 && t.Pos <= len(p.src) && (p.src[t.Pos-1] == ' ' || p.src[t.Pos-1] == '\t')
}

// parseSymbolVector merges juxtaposed symbol literals: `Symbol`Time.
func (p *parser) parseSymbolVector() ast.Node {
	first := p.next()
	syms := []string{string(first.Val.(qval.Symbol))}
	for p.at(lex.Sym) && p.toks[p.pos].Pos == p.toks[p.pos-1].Pos+len(p.toks[p.pos-1].Text) {
		syms = append(syms, string(p.next().Val.(qval.Symbol)))
	}
	if len(syms) == 1 {
		return &ast.Lit{Val: qval.Symbol(syms[0])}
	}
	return &ast.Lit{Val: qval.SymbolVec(syms)}
}

// parseParen parses (expr) grouping, (a;b;c) general list literals, and
// ([] c1:e1; c2:e2) table literals (desugared to flip of a column dict).
func (p *parser) parseParen() (ast.Node, error) {
	p.next() // (
	if p.at(lex.LBracket) {
		return p.parseTableLit()
	}
	if p.at(lex.RParen) {
		p.next()
		return &ast.Lit{Val: qval.List{}}, nil
	}
	var items []ast.Node
	for {
		e, err := p.parseExpr(false)
		if err != nil {
			return nil, err
		}
		items = append(items, e)
		if p.at(lex.Semi) {
			p.next()
			continue
		}
		break
	}
	if !p.at(lex.RParen) {
		return nil, p.errf("expected ')', got %s", p.tok())
	}
	p.next()
	if len(items) == 1 {
		return items[0], nil // grouping
	}
	return &ast.ListExpr{Items: items}, nil
}

// parseBracketArgs parses [a;b;c]; empty slots become nil (projections).
func (p *parser) parseBracketArgs() ([]ast.Node, error) {
	p.next() // [
	var args []ast.Node
	if p.at(lex.RBracket) {
		p.next()
		return args, nil
	}
	for {
		if p.at(lex.Semi) {
			args = append(args, nil)
			p.next()
			continue
		}
		e, err := p.parseExpr(false)
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.at(lex.Semi) {
			p.next()
			continue
		}
		break
	}
	if !p.at(lex.RBracket) {
		return nil, p.errf("expected ']', got %s", p.tok())
	}
	p.next()
	return args, nil
}

// parseLambda parses {[a;b] stmt; stmt} or {x+y} (implicit x y z params).
func (p *parser) parseLambda() (ast.Node, error) {
	start := p.tok().Pos
	p.next() // {
	var params []string
	if p.at(lex.LBracket) {
		p.next()
		for !p.at(lex.RBracket) {
			if !p.at(lex.Ident) {
				return nil, p.errf("expected parameter name, got %s", p.tok())
			}
			params = append(params, p.next().Text)
			if p.at(lex.Semi) {
				p.next()
			}
		}
		p.next() // ]
	}
	var body []ast.Node
	for !p.at(lex.RBrace) {
		if p.at(lex.Semi) {
			p.next()
			continue
		}
		if p.at(lex.EOF) {
			return nil, p.errf("unterminated function body")
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, stmt)
		if !p.at(lex.Semi) && !p.at(lex.RBrace) {
			return nil, p.errf("expected ';' or '}' in function body, got %s", p.tok())
		}
	}
	endTok := p.next() // }
	end := endTok.Pos + 1
	if len(params) == 0 {
		params = implicitParams(body)
	}
	return &ast.Lambda{Params: params, Body: body, Source: p.src[start:end]}, nil
}

// implicitParams detects use of the implicit parameters x, y, z.
func implicitParams(body []ast.Node) []string {
	used := map[string]bool{}
	for _, s := range body {
		ast.Walk(s, func(n ast.Node) bool {
			if v, ok := n.(*ast.Var); ok {
				if v.Name == "x" || v.Name == "y" || v.Name == "z" {
					used[v.Name] = true
				}
			}
			return true
		})
	}
	var out []string
	for _, p := range []string{"x", "y", "z"} {
		if used[p] {
			out = append(out, p)
		} else {
			break
		}
	}
	return out
}

// parseTemplate parses the q-sql templates. Grammar:
//
//	select [colspecs] [by colspecs] from expr [where conds]
//	exec   [colspecs] [by colspecs] from expr [where conds]
//	update colspecs [by colspecs] from expr [where conds]
//	delete [names] from expr [where conds]
func (p *parser) parseTemplate() (ast.Node, error) {
	kw := p.next()
	var kind ast.TemplateKind
	switch kw.Text {
	case "select":
		kind = ast.Select
	case "exec":
		kind = ast.Exec
	case "update":
		kind = ast.Update
	case "delete":
		kind = ast.Delete
	}
	tpl := &ast.SQLTemplate{Kind: kind}
	// column list until 'by' or 'from'
	for !p.atKeyword("from") && !p.atKeyword("by") {
		if p.at(lex.EOF) {
			return nil, p.errf("expected 'from' in %s template", kw.Text)
		}
		spec, err := p.parseColSpec()
		if err != nil {
			return nil, err
		}
		tpl.Cols = append(tpl.Cols, spec)
		if p.at(lex.Op) && p.tok().Text == "," {
			p.next()
			continue
		}
		break
	}
	if p.atKeyword("by") {
		p.next()
		for !p.atKeyword("from") {
			if p.at(lex.EOF) {
				return nil, p.errf("expected 'from' after 'by'")
			}
			spec, err := p.parseColSpec()
			if err != nil {
				return nil, err
			}
			tpl.By = append(tpl.By, spec)
			if p.at(lex.Op) && p.tok().Text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if !p.atKeyword("from") {
		return nil, p.errf("expected 'from' in %s template, got %s", kw.Text, p.tok())
	}
	p.next()
	from, err := p.parseFromExpr()
	if err != nil {
		return nil, err
	}
	tpl.From = from
	if p.atKeyword("where") {
		p.next()
		for {
			cond, err := p.parseExpr(true)
			if err != nil {
				return nil, err
			}
			tpl.Where = append(tpl.Where, cond)
			if p.at(lex.Op) && p.tok().Text == "," {
				p.next()
				continue
			}
			break
		}
	}
	return tpl, nil
}

func (p *parser) atKeyword(w string) bool {
	return p.at(lex.Keyword) && p.tok().Text == w
}

// parseColSpec parses one column entry: name:expr or a bare expression whose
// result name is inferred later.
func (p *parser) parseColSpec() (ast.ColSpec, error) {
	if p.at(lex.Ident) && p.peekKind(1) == lex.Assign && !infixWords[p.tok().Text] {
		name := p.next().Text
		p.next() // :
		e, err := p.parseExpr(true)
		if err != nil {
			return ast.ColSpec{}, err
		}
		return ast.ColSpec{Name: name, Expr: e}, nil
	}
	e, err := p.parseExpr(true)
	if err != nil {
		return ast.ColSpec{}, err
	}
	return ast.ColSpec{Expr: e}, nil
}

// parseFromExpr parses the table expression of a template. It stops before
// a 'where' keyword; a nested template or join call is fine because those
// parse as complete nouns.
func (p *parser) parseFromExpr() (ast.Node, error) {
	noun, err := p.parseNoun(true)
	if err != nil {
		return nil, err
	}
	// allow postfix brackets and infix joins but not juxtaposition into
	// the where clause
	for {
		if p.at(lex.LBracket) {
			args, err := p.parseBracketArgs()
			if err != nil {
				return nil, err
			}
			noun = &ast.Apply{Fn: noun, Args: args}
			continue
		}
		if p.at(lex.Ident) && infixWords[p.tok().Text] {
			op := p.next().Text
			r, err := p.parseFromExpr()
			if err != nil {
				return nil, err
			}
			noun = &ast.Dyad{Op: op, L: noun, R: r}
			continue
		}
		break
	}
	return noun, nil
}

// InferColName derives the q result column name for an unnamed column
// expression: the last variable referenced, or "x" when none exists.
func InferColName(e ast.Node) string {
	name := ""
	ast.Walk(e, func(n ast.Node) bool {
		if v, ok := n.(*ast.Var); ok && !infixWords[v.Name] {
			name = v.Name
		}
		return true
	})
	if name == "" {
		return "x"
	}
	return name
}

// negateLiteral negates a numeric or temporal literal value for the
// adjacent-minus rule (-5 lexes as two tokens but denotes one literal).
func negateLiteral(v qval.Value) (qval.Value, error) {
	switch x := v.(type) {
	case qval.Long:
		return qval.Long(-x), nil
	case qval.Int:
		return qval.Int(-x), nil
	case qval.Short:
		return qval.Short(-x), nil
	case qval.Float:
		return qval.Float(-x), nil
	case qval.Real:
		return qval.Real(-x), nil
	case qval.Temporal:
		return qval.Temporal{T: x.T, V: -x.V}, nil
	case qval.Datetime:
		return qval.Datetime(-x), nil
	default:
		return nil, fmt.Errorf("cannot negate %s literal", qval.TypeName(v.Type()))
	}
}

// parseTableLit parses ([keycols] c1:e1; c2:e2), producing the desugared
// expression flip `c1`c2!(e1;e2), wrapped in an xkey call when key columns
// are present. This mirrors how q itself defines the table literal.
func (p *parser) parseTableLit() (ast.Node, error) {
	p.next() // [
	var keySpecs []ast.ColSpec
	for !p.at(lex.RBracket) {
		if p.at(lex.EOF) {
			return nil, p.errf("unterminated table literal key section")
		}
		spec, err := p.parseColSpec()
		if err != nil {
			return nil, err
		}
		keySpecs = append(keySpecs, spec)
		if p.at(lex.Semi) {
			p.next()
		}
	}
	p.next() // ]
	var colSpecs []ast.ColSpec
	for !p.at(lex.RParen) {
		if p.at(lex.EOF) {
			return nil, p.errf("unterminated table literal")
		}
		if p.at(lex.Semi) {
			p.next()
			continue
		}
		spec, err := p.parseColSpec()
		if err != nil {
			return nil, err
		}
		colSpecs = append(colSpecs, spec)
		if !p.at(lex.Semi) && !p.at(lex.RParen) {
			return nil, p.errf("expected ';' or ')' in table literal, got %s", p.tok())
		}
	}
	p.next() // )
	all := append(append([]ast.ColSpec{}, keySpecs...), colSpecs...)
	if len(all) == 0 {
		return nil, p.errf("empty table literal")
	}
	names := make(qval.SymbolVec, len(all))
	items := make([]ast.Node, len(all))
	for i, spec := range all {
		name := spec.Name
		if name == "" {
			name = InferColName(spec.Expr)
		}
		names[i] = name
		items[i] = spec.Expr
	}
	var node ast.Node = &ast.Apply{
		Fn:   &ast.Var{Name: "flip"},
		Args: []ast.Node{&ast.Dyad{Op: "!", L: &ast.Lit{Val: names}, R: &ast.ListExpr{Items: items}}},
	}
	if len(keySpecs) > 0 {
		keyNames := make(qval.SymbolVec, len(keySpecs))
		for i, spec := range keySpecs {
			name := spec.Name
			if name == "" {
				name = InferColName(spec.Expr)
			}
			keyNames[i] = name
		}
		node = &ast.Dyad{Op: "xkey", L: &ast.Lit{Val: keyNames}, R: node}
	}
	return node, nil
}

// functionish reports whether a noun is plausibly a function, for the
// negative-literal juxtaposition rule.
func functionish(n ast.Node) bool {
	switch n.(type) {
	case *ast.Var, *ast.Lambda, *ast.AdverbExpr:
		return true
	default:
		return false
	}
}
