// Package pgdb implements an embedded PostgreSQL-dialect analytical database
// that stands in for Greenplum/PostgreSQL in this reproduction (paper §6 ran
// against Greenplum). It provides the pieces Hyper-Q relies on: a catalog
// with information_schema metadata queries (used by the binder's MDI,
// §3.2.3), SQL execution with three-valued logic and IS NOT DISTINCT FROM
// (§3.3), temporary tables and views for eager materialization (§4.3),
// ROW_NUMBER windows for implicit-order generation, and a PG v3 wire front
// end (package pgv3 plus cmd/pgserver). It runs the SQL Hyper-Q sends and
// refuses the rest; tables are append-only.
//
// Values are represented as Go any: nil (SQL NULL), bool, int64, float64 and
// string. Temporal columns store int64 magnitudes in kdb-compatible units
// (days since 2000-01-01 for date, milliseconds since midnight for time,
// nanoseconds since 2000-01-01 for timestamp) and format to standard
// PostgreSQL text forms on the wire.
package pgdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"hyperq/internal/wire/pgv3"
)

// Column describes one table column.
type Column struct {
	Name string
	Type string // normalized lowercase type name
}

// Result is the outcome of executing one statement.
type Result struct {
	Cols []Column
	Rows [][]any
	Tag  string // command tag, e.g. "SELECT 5"
	// store is set for a base table's columnar storage, or for a SELECT
	// block's statement-private one (gather.go), which every SELECT result
	// is. Rows is then nil: consumers that need boxed rows box them through
	// the relation (rowsView, boxSel), so scans the planner fully prunes
	// never touch evicted segments. Inside pgdb only the walker's operators
	// fill Rows, which their block columnizes. A top-level store leaves pgdb
	// only through the PG v3 writer (wireResult), which walks its vectors;
	// the exported entry points box it (boxed), so their results always
	// carry Rows.
	store *colStore
}

// Error is an execution error, carrying a PostgreSQL-style SQLSTATE code.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("ERROR %s: %s", e.Code, e.Msg) }

func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

var pgEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// IsNumericType reports whether a column type is numeric.
func IsNumericType(t string) bool {
	switch t {
	case "smallint", "integer", "int", "int2", "int4", "int8", "bigint",
		"real", "float4", "float8", "double precision", "numeric", "decimal":
		return true
	}
	return false
}

// IsTemporalType reports whether a column type is date/time-like.
func IsTemporalType(t string) bool {
	switch t {
	case "date", "time", "timestamp", "timestamptz", "interval":
		return true
	}
	return false
}

// FormatValue renders a value as PostgreSQL text output for the given
// column type. NULL renders as an empty string at the protocol layer (the
// DataRow encoding distinguishes it by length -1). It is AppendValue's
// rendering as a string; a string value is returned as is, without a copy.
func FormatValue(v any, typ string) string {
	if s, ok := v.(string); ok {
		return s
	}
	var buf [32]byte
	return string(AppendValue(buf[:0], v, typ))
}

// AppendValue appends v's PostgreSQL text rendering for the column type to
// dst. It is the one renderer: the PG v3 server writes DataRow cells with it
// straight into its output buffer, and FormatValue wraps it.
func AppendValue(dst []byte, v any, typ string) []byte {
	if v == nil {
		return dst
	}
	switch x := v.(type) {
	case bool:
		if x {
			return append(dst, 't')
		}
		return append(dst, 'f')
	case int64:
		return appendIntText(dst, x, typ)
	case float64:
		return appendFloatText(dst, x)
	case string:
		return append(dst, x...)
	default:
		return fmt.Appendf(dst, "%v", x)
	}
}

// appendIntText is AppendValue for an int64 value.
func appendIntText(dst []byte, x int64, typ string) []byte {
	switch typ {
	case "date":
		return appendDate(dst, x)
	case "time":
		return appendTimeOfDay(dst, x)
	case "timestamp", "timestamptz":
		return pgEpoch.Add(time.Duration(x)).AppendFormat(dst, "2006-01-02 15:04:05.999999999")
	default: // integers, and an interval's nanoseconds: int8 on the wire
		return strconv.AppendInt(dst, x, 10)
	}
}

// appendFloatText is AppendValue for a float64 value. PostgreSQL spells
// infinities "Infinity"/"-Infinity", not Go's "+Inf"/"-Inf".
func appendFloatText(dst []byte, x float64) []byte {
	switch {
	case math.IsNaN(x):
		return append(dst, "NaN"...)
	case math.IsInf(x, 1):
		return append(dst, "Infinity"...)
	case math.IsInf(x, -1):
		return append(dst, "-Infinity"...)
	}
	return strconv.AppendFloat(dst, x, 'g', -1, 64)
}

// appendBinary appends v's PostgreSQL binary form for a column of type typ,
// whose wire type oid must be in pgv3's binary set (pgv3.BinaryWidth): the
// binary counterpart of AppendValue, for the columns a client asked for in
// binary. A value the binary form cannot hold fails with the SQLSTATE
// PostgreSQL uses: 22003 for a smallint or integer out of range, 22008 for a
// date or time out of range. A value whose Go type is not the column's own
// takes the text path's route to the same cell: its AppendValue rendering,
// parsed as the column type's text (a string in a date or time column as
// that type's SQL input).
func appendBinary(dst []byte, v any, oid uint32, typ string) ([]byte, error) {
	switch oid {
	case pgv3.OidBool:
		b, ok := v.(bool)
		if !ok {
			t := AppendValue(dst, v, typ)
			s := t[len(dst):]
			b = string(s) == "t" || string(s) == "true" || string(s) == "1"
			dst = t[:len(dst)]
		}
		if b {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case pgv3.OidFloat8:
		if f, ok := v.(float64); ok {
			return binary.BigEndian.AppendUint64(dst, math.Float64bits(f)), nil
		}
	}
	n, ok := v.(int64)
	if !ok {
		var err error
		switch oid {
		case pgv3.OidInt2, pgv3.OidInt4, pgv3.OidInt8:
			dst, n, err = reparse(dst, v, typ, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
		case pgv3.OidFloat8:
			var f float64
			if dst, f, err = reparse(dst, v, typ, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }); err == nil {
				return appendBinary(dst, f, oid, typ)
			}
		case pgv3.OidDate, pgv3.OidTime:
			// a string read as the type's SQL input, as a cast would have
			s, isStr := v.(string)
			if !isStr {
				return dst, errf("42804", "%s column holds a %T value", typ, v)
			}
			var x any
			if x, err = ParseValue(s, typ); err == nil {
				n = x.(int64)
			}
		default:
			return dst, errf("0A000", "no binary format for type %s", typ)
		}
		if err != nil {
			return dst, err
		}
	}
	return appendBinaryInt(dst, n, oid, typ)
}

// appendBinaryInt is appendBinary for an int64 value.
func appendBinaryInt(dst []byte, n int64, oid uint32, typ string) ([]byte, error) {
	switch oid {
	case pgv3.OidInt2:
		if n < math.MinInt16 || n > math.MaxInt16 {
			return dst, errf("22003", "smallint out of range: %d", n)
		}
		return binary.BigEndian.AppendUint16(dst, uint16(n)), nil
	case pgv3.OidInt4, pgv3.OidDate:
		switch {
		case n >= math.MinInt32 && n <= math.MaxInt32:
			return binary.BigEndian.AppendUint32(dst, uint32(n)), nil
		case oid == pgv3.OidDate:
			return dst, errf("22008", "date out of range: %d days", n)
		}
		return dst, errf("22003", "integer out of range: %d", n)
	case pgv3.OidInt8:
		return binary.BigEndian.AppendUint64(dst, uint64(n)), nil
	case pgv3.OidFloat8:
		// rounds as parsing its decimal text does
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(n))), nil
	case pgv3.OidTime:
		if n < math.MinInt64/1000 || n > math.MaxInt64/1000 {
			return dst, errf("22008", "time out of range: %d ms", n)
		}
		return binary.BigEndian.AppendUint64(dst, uint64(n*1000)), nil
	case pgv3.OidBool:
		return appendBinary(dst, n, oid, typ)
	}
	return dst, errf("0A000", "no binary format for type %s", typ)
}

// reparse renders v as the text path would, past the end of dst, and parses
// that text as the column type; the rendering is dropped again, so dst comes
// back as it was. A parse failure is the error the text path's decoder
// would hit.
func reparse[T any](dst []byte, v any, typ string, parse func(string) (T, error)) ([]byte, T, error) {
	t := AppendValue(dst, v, typ)
	x, err := parse(string(t[len(dst):]))
	if err != nil {
		return t[:len(dst)], x, errf("22P02", "invalid input syntax for type %s: %q", typ, t[len(dst):])
	}
	return t[:len(dst)], x, nil
}

// Days since 2000-01-01 of the first and last dates with four-digit years.
const (
	minYMDDay = -730485 // 0000-01-01
	maxYMDDay = 2921939 // 9999-12-31
)

// appendDate renders days since 2000-01-01 as "YYYY-MM-DD" with integer
// civil-from-days arithmetic (Hinnant's algorithm over 400-year eras of
// 146097 days, years starting in March). Years outside 0000-9999 go through
// time.Time, whose layout decides their sign and width.
func appendDate(dst []byte, days int64) []byte {
	if days < minYMDDay || days > maxYMDDay {
		return pgEpoch.AddDate(0, 0, int(days)).AppendFormat(dst, "2006-01-02")
	}
	z := days + 730425 + 146097 // days since -0400-03-01: never negative in range
	era := z / 146097
	doe := z - era*146097                                  // day of era, [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era, [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day of March-based year
	mp := (5*doy + 2) / 153                                // March = 0
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	y := era*400 + yoe - 400
	if m > 12 {
		m -= 12
		y++
	}
	return append(dst,
		byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-',
		byte('0'+d/10), byte('0'+d%10))
}

// appendTimeOfDay renders ms-since-midnight as "HH:MM:SS.mmm", hours
// counting on past 24; a negative value is a '-' before its absolute
// value's rendering.
func appendTimeOfDay(dst []byte, ms int64) []byte {
	if ms < 0 {
		dst = append(dst, '-')
	}
	u := absInt(ms)
	dst = appendPadded(dst, u/3600000, 2)
	dst = append(dst, ':')
	dst = appendPadded(dst, u/60000%60, 2)
	dst = append(dst, ':')
	dst = appendPadded(dst, u/1000%60, 2)
	dst = append(dst, '.')
	return appendPadded(dst, u%1000, 3)
}

// appendPadded is fmt's "%0<width>d" of an unsigned value.
func appendPadded(dst []byte, v uint64, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], v, 10)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

func absInt(v int64) uint64 {
	if v < 0 {
		return uint64(-v) // also right for MinInt64: two's complement wraps to 2^63
	}
	return uint64(v)
}

// ParseValue converts PostgreSQL text input into an engine value for the
// given column type.
func ParseValue(s string, typ string) (any, error) {
	switch {
	case typ == "boolean" || typ == "bool":
		switch strings.ToLower(s) {
		case "t", "true", "1":
			return true, nil
		case "f", "false", "0":
			return false, nil
		}
		return nil, errf("22P02", "invalid boolean %q", s)
	case IsNumericType(typ) || typ == "interval":
		if strings.ContainsAny(s, ".eE") || typ == "real" || typ == "float4" ||
			typ == "float8" || typ == "double precision" || typ == "numeric" || typ == "decimal" {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, errf("22P02", "invalid number %q", s)
			}
			return f, nil
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, errf("22P02", "invalid integer %q", s)
		}
		return n, nil
	case typ == "date":
		t, err := time.Parse("2006-01-02", s)
		if err != nil {
			return nil, errf("22007", "invalid date %q", s)
		}
		// Unix seconds, unlike a time.Duration, do not saturate 292 years out
		return (t.Unix() - pgEpoch.Unix()) / 86400, nil
	case typ == "time":
		var h, m, sec, ms int
		if n, _ := fmt.Sscanf(s, "%d:%d:%d.%d", &h, &m, &sec, &ms); n < 3 {
			if n, _ := fmt.Sscanf(s, "%d:%d:%d", &h, &m, &sec); n < 2 {
				return nil, errf("22007", "invalid time %q", s)
			}
		}
		return int64(h)*3600000 + int64(m)*60000 + int64(sec)*1000 + int64(ms), nil
	case typ == "timestamp" || typ == "timestamptz":
		for _, layout := range []string{"2006-01-02 15:04:05.999999999", "2006-01-02T15:04:05.999999999", "2006-01-02"} {
			if t, err := time.Parse(layout, s); err == nil {
				return t.Sub(pgEpoch).Nanoseconds(), nil
			}
		}
		return nil, errf("22007", "invalid timestamp %q", s)
	default:
		return s, nil
	}
}

// compareVals orders two non-null engine values: -1, 0, 1. Numeric values
// compare by magnitude across int64/float64; strings lexically; bools
// false<true.
func compareVals(a, b any) int {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		// PostgreSQL treats NaN as equal to itself and greater than every
		// other value; bare float comparison would call them all equal
		an, bn := math.IsNaN(af), math.IsNaN(bf)
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		case bn:
			return -1
		}
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return strings.Compare(as, bs)
	}
	ab, aok := a.(bool)
	bb, bok := b.(bool)
	if aok && bok {
		switch {
		case !ab && bb:
			return -1
		case ab && !bb:
			return 1
		default:
			return 0
		}
	}
	// mixed incomparable types: order by type name for stability
	return strings.Compare(fmt.Sprintf("%T", a), fmt.Sprintf("%T", b))
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// equalVals is SQL equality on two non-null values (three-valued logic is
// applied by the caller, which handles nulls before calling).
func equalVals(a, b any) bool { return compareVals(a, b) == 0 }

// keyString builds the hashable key of a value tuple for GROUP BY, window
// partitions and hash joins; nulls group together, as PostgreSQL GROUP BY
// specifies.
func keyString(vals []any) string {
	var arr [64]byte
	buf := arr[:0]
	for _, v := range vals {
		buf = appendKeyVal(buf, v)
	}
	return string(buf)
}

// appendKeyVal appends one value's key encoding: a type tag, then a
// fixed-width or length-prefixed payload, so a tuple's key is the
// concatenation of self-delimiting cells and two tuples share a key only
// when they agree cell by cell. Equality is type-tagged (int64 2 and
// float64 2.0 are different keys); every NaN is one key and ±0 are two, as
// the float's text form has them. The fused aggregate path encodes vector
// cells through appendKeyCell, which must produce the same bytes.
func appendKeyVal(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'N')
	case int64:
		return appendKeyInt(buf, x)
	case float64:
		return appendKeyFloat(buf, x)
	case string:
		return appendKeyStr(buf, x)
	case bool:
		return appendKeyBool(buf, x)
	default:
		// out of the engine's value domain: keyed by its type and text
		return appendKeyStr(append(buf, 'o'), fmt.Sprintf("%T:%v", x, x))
	}
}

func appendKeyInt(buf []byte, n int64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(n))
}

func appendKeyBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 'T')
	}
	return append(buf, 'F')
}

func appendKeyFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) {
		f = math.NaN()
	}
	return binary.BigEndian.AppendUint64(append(buf, 'f'), math.Float64bits(f))
}

func appendKeyStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(append(buf, 's'), uint64(len(s)))
	return append(buf, s...)
}
