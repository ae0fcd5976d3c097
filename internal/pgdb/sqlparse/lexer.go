// Package sqlparse implements a lexer and parser for the PostgreSQL dialect
// that Hyper-Q's serializer emits and that the embedded pgdb engine executes:
// SELECT with inner and left joins, grouping, ordering, LIMIT, UNION ALL,
// subqueries and ROW_NUMBER() windows; CREATE [TEMPORARY] TABLE [AS], CREATE
// VIEW, INSERT ... VALUES and DROP — tables are append-only; expressions with
// SQL three-valued logic, IS [NOT] DISTINCT FROM, BETWEEN, LIKE, CASE,
// CAST/:: and function calls. Everything else is a parse error. Keywords of
// the wider PostgreSQL grammar stay reserved, so a statement using one fails
// instead of reading it as a name (FROM t RIGHT JOIN u is not t AS right).
package sqlparse

import (
	"fmt"
	"strings"
)

// TokKind classifies SQL tokens.
type TokKind int

// Token kinds.
const (
	TEOF   TokKind = iota
	TIdent         // unquoted (lowercased) or "quoted" identifiers
	TKeyword
	TNumber
	TString // 'single quoted'
	TOp     // operators and punctuation
	TParam  // $1 style placeholders
)

// Token is one SQL lexical unit.
type Token struct {
	Kind TokKind
	Text string // keywords are uppercased, unquoted identifiers lowercased
	Pos  int
}

func (t Token) String() string { return fmt.Sprintf("%v(%q)", t.Kind, t.Text) }

var sqlKeywords = map[string]bool{}

func init() {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "HAVING", "LIMIT",
		"OFFSET", "AS", "ON", "JOIN", "INNER", "LEFT", "RIGHT", "FULL",
		"OUTER", "CROSS", "UNION", "ALL", "DISTINCT", "AND", "OR", "NOT",
		"NULL", "TRUE", "FALSE", "IS", "IN", "BETWEEN", "LIKE", "ILIKE",
		"CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "CREATE", "TEMPORARY",
		"TEMP", "TABLE", "VIEW", "DROP", "INSERT", "INTO", "VALUES", "UPDATE",
		"SET", "DELETE", "TRUNCATE", "IF", "EXISTS", "PRIMARY", "KEY",
		"OVER", "PARTITION", "ROWS", "RANGE", "UNBOUNDED", "PRECEDING",
		"FOLLOWING", "CURRENT", "ROW", "ASC", "DESC", "NULLS", "BEGIN", "COMMIT", "ROLLBACK", "EXPLAIN", "ANALYZE",
	} {
		sqlKeywords[k] = true
	}
}

// LexError is a lexical error with byte offset.
type LexError struct {
	Msg string
	Pos int
}

func (e *LexError) Error() string { return fmt.Sprintf("sql lex error at %d: %s", e.Pos, e.Msg) }

// Lex tokenizes SQL text.
func Lex(src string) ([]Token, error) {
	var out []Token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*': // block comment
			j := strings.Index(src[i+2:], "*/")
			if j < 0 {
				return nil, &LexError{Msg: "unterminated comment", Pos: i}
			}
			i += j + 4
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, &LexError{Msg: "unterminated string", Pos: start}
			}
			out = append(out, Token{Kind: TString, Text: b.String(), Pos: start})
		case c == '"':
			start := i
			i++
			j := strings.IndexByte(src[i:], '"')
			if j < 0 {
				return nil, &LexError{Msg: "unterminated quoted identifier", Pos: start}
			}
			out = append(out, Token{Kind: TIdent, Text: src[i : i+j], Pos: start})
			i += j + 1
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			for i < n && (src[i] >= '0' && src[i] <= '9' || src[i] == '.' ||
				src[i] == 'e' || src[i] == 'E' ||
				((src[i] == '+' || src[i] == '-') && i > start && (src[i-1] == 'e' || src[i-1] == 'E'))) {
				i++
			}
			out = append(out, Token{Kind: TNumber, Text: src[start:i], Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if sqlKeywords[up] {
				out = append(out, Token{Kind: TKeyword, Text: up, Pos: start})
			} else {
				out = append(out, Token{Kind: TIdent, Text: strings.ToLower(word), Pos: start})
			}
		case c == '$':
			start := i
			i++
			for i < n && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			out = append(out, Token{Kind: TParam, Text: src[start:i], Pos: start})
		default:
			start := i
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<>", "<=", ">=", "!=", "||", "::":
				out = append(out, Token{Kind: TOp, Text: two, Pos: start})
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '(', ')', ',', '=', '<', '>', '.', ';':
				out = append(out, Token{Kind: TOp, Text: string(c), Pos: start})
				i++
			default:
				return nil, &LexError{Msg: fmt.Sprintf("unexpected character %q", string(c)), Pos: i}
			}
		}
	}
	out = append(out, Token{Kind: TEOF, Pos: n})
	return out, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
