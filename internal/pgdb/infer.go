package pgdb

import (
	"strings"

	"hyperq/internal/pgdb/sqlparse"
)

// inferType derives an output column type from an expression shape; when
// the shape is inconclusive it returns "unknown" and refineStoreTypes fixes
// it from the data.
func (s *Session) inferType(e sqlparse.Expr, schema []colBinding) string {
	switch x := e.(type) {
	case *sqlparse.NumberLit:
		if strings.ContainsAny(x.Text, ".eE") {
			return "double precision"
		}
		return "bigint"
	case *sqlparse.StringLit:
		return "varchar"
	case *sqlparse.BoolLit:
		return "boolean"
	case *sqlparse.NullLit:
		return "unknown"
	case *sqlparse.ColRef:
		if i, err := findCol(schema, x); err == nil {
			return schema[i].typ
		}
		return "unknown"
	case *sqlparse.CastExpr:
		return normalizeType(x.Type)
	case *sqlparse.UnaryExpr:
		if x.Op == "NOT" {
			return "boolean"
		}
		return s.inferType(x.X, schema)
	case *sqlparse.IsNullExpr:
		return "boolean"
	case *sqlparse.BetweenExpr:
		return "boolean"
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", ">", "<=", ">=", "LIKE",
			"IS DISTINCT FROM", "IS NOT DISTINCT FROM":
			return "boolean"
		case "||":
			return "varchar"
		case "/":
			return "double precision"
		default:
			lt := s.inferType(x.L, schema)
			rt := s.inferType(x.R, schema)
			if lt == "double precision" || rt == "double precision" ||
				lt == "real" || rt == "real" || lt == "numeric" || rt == "numeric" {
				return "double precision"
			}
			if IsTemporalType(lt) {
				return lt
			}
			if IsTemporalType(rt) {
				return rt
			}
			if lt == "unknown" || rt == "unknown" {
				return "unknown"
			}
			return "bigint"
		}
	case *sqlparse.CaseExpr:
		for _, w := range x.Whens {
			if t := s.inferType(w.Then, schema); t != "unknown" {
				return t
			}
		}
		if x.Else != nil {
			return s.inferType(x.Else, schema)
		}
		return "unknown"
	case *sqlparse.FuncCall:
		switch x.Name {
		case "count", "row_number":
			return "bigint"
		case "avg", "stddev_pop", "var_pop", "sqrt", "exp", "ln",
			"floor", "ceil", "median":
			return "double precision"
		case "sum", "min", "max", "abs", "first", "last":
			if len(x.Args) > 0 {
				return s.inferType(x.Args[0], schema)
			}
			return "unknown"
		case "coalesce", "nullif", "greatest", "least":
			// these return the widest of their arguments, not the first:
			// LEAST(i, 0.5) is double precision even though i is bigint
			out := "unknown"
			for _, a := range x.Args {
				t := s.inferType(a, schema)
				switch t {
				case "unknown":
				case "double precision", "real", "numeric":
					return "double precision"
				default:
					if out == "unknown" {
						out = t
					}
				}
			}
			return out
		case "upper", "lower":
			return "varchar"
		default:
			return "unknown"
		}
	default:
		return "unknown"
	}
}
