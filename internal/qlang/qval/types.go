// Package qval implements the Q value model used throughout the Hyper-Q
// reproduction: typed atoms, typed vectors, general lists, dictionaries,
// tables and keyed tables, together with the per-type null values,
// two-valued-logic comparison, indexing and kx-style formatting that the
// kdb+ substrate, the QIPC wire protocol and the binder all rely on.
//
// Type codes follow the kx convention: a vector of longs has type 7, a long
// atom has type -7, a general list has type 0, dictionaries are 99, tables
// are 98 and lambdas are 100. Temporal values are stored relative to the kdb+
// epoch 2000.01.01.
package qval

import "fmt"

// Type is a kx type code. Positive codes denote vectors (and the compound
// types dict/table/lambda); the negation of a vector code denotes the
// corresponding atom. Code 0 is the general (mixed) list.
type Type int8

// Vector type codes (atoms are the negated values).
const (
	KList      Type = 0  // general list
	KBool      Type = 1  // boolean
	KGUID      Type = 2  // guid (unsupported payload, kept for completeness)
	KByte      Type = 4  // byte
	KShort     Type = 5  // 16-bit integer
	KInt       Type = 6  // 32-bit integer
	KLong      Type = 7  // 64-bit integer
	KReal      Type = 8  // 32-bit float
	KFloat     Type = 9  // 64-bit float
	KChar      Type = 10 // character
	KSymbol    Type = 11 // interned symbol
	KTimestamp Type = 12 // nanoseconds since 2000.01.01
	KMonth     Type = 13 // months since 2000.01
	KDate      Type = 14 // days since 2000.01.01
	KDatetime  Type = 15 // fractional days since 2000.01.01 (deprecated in kdb+)
	KTimespan  Type = 16 // nanoseconds
	KMinute    Type = 17 // minutes since midnight
	KSecond    Type = 18 // seconds since midnight
	KTime      Type = 19 // milliseconds since midnight
	KTable     Type = 98
	KDict      Type = 99
	KLambda    Type = 100
	KUnary     Type = 101 // unary primitive (e.g. ::)
	KError     Type = -128
)

// Value is a Q value: an atom, a vector, a general list, a dictionary, a
// table or a function. Len reports the number of elements and is -1 for
// atoms. String renders the value in kx display format.
type Value interface {
	// Type returns the kx type code of the value.
	Type() Type
	// Len returns the element count, or -1 when the value is an atom.
	Len() int
	// String renders the value in a kx-like display format.
	String() string
}

// IsAtom reports whether v is an atom (negative type code, or a lambda).
func IsAtom(v Value) bool { return v.Len() < 0 }

// IsTemporal reports whether t (a vector code or its negation) denotes one of
// the temporal types.
func IsTemporal(t Type) bool {
	if t < 0 {
		t = -t
	}
	return t >= KTimestamp && t <= KTime
}

// IsNumeric reports whether t denotes a numeric (non-temporal) type.
func IsNumeric(t Type) bool {
	if t < 0 {
		t = -t
	}
	switch t {
	case KBool, KByte, KShort, KInt, KLong, KReal, KFloat:
		return true
	}
	return false
}

// TypeName returns the kdb+ name of a type code ("long", "symbol", ...).
func TypeName(t Type) string {
	if t < 0 {
		t = -t
	}
	switch t {
	case KList:
		return "list"
	case KBool:
		return "boolean"
	case KGUID:
		return "guid"
	case KByte:
		return "byte"
	case KShort:
		return "short"
	case KInt:
		return "int"
	case KLong:
		return "long"
	case KReal:
		return "real"
	case KFloat:
		return "float"
	case KChar:
		return "char"
	case KSymbol:
		return "symbol"
	case KTimestamp:
		return "timestamp"
	case KMonth:
		return "month"
	case KDate:
		return "date"
	case KDatetime:
		return "datetime"
	case KTimespan:
		return "timespan"
	case KMinute:
		return "minute"
	case KSecond:
		return "second"
	case KTime:
		return "time"
	case KTable:
		return "table"
	case KDict:
		return "dict"
	case KLambda:
		return "lambda"
	case KUnary:
		return "unary"
	default:
		return fmt.Sprintf("type%d", int(t))
	}
}

// CharCode returns the single-character type letter kdb+ uses in meta
// results ("j" for long, "s" for symbol, ...).
func CharCode(t Type) byte {
	if t < 0 {
		t = -t
	}
	switch t {
	case KBool:
		return 'b'
	case KGUID:
		return 'g'
	case KByte:
		return 'x'
	case KShort:
		return 'h'
	case KInt:
		return 'i'
	case KLong:
		return 'j'
	case KReal:
		return 'e'
	case KFloat:
		return 'f'
	case KChar:
		return 'c'
	case KSymbol:
		return 's'
	case KTimestamp:
		return 'p'
	case KMonth:
		return 'm'
	case KDate:
		return 'd'
	case KDatetime:
		return 'z'
	case KTimespan:
		return 'n'
	case KMinute:
		return 'u'
	case KSecond:
		return 'v'
	case KTime:
		return 't'
	default:
		return ' '
	}
}

// TypeFromCharCode is the inverse of CharCode; it returns the vector type
// for a meta type letter, or KList when the letter is unknown.
func TypeFromCharCode(c byte) Type {
	switch c {
	case 'b':
		return KBool
	case 'g':
		return KGUID
	case 'x':
		return KByte
	case 'h':
		return KShort
	case 'i':
		return KInt
	case 'j':
		return KLong
	case 'e':
		return KReal
	case 'f':
		return KFloat
	case 'c':
		return KChar
	case 's':
		return KSymbol
	case 'p':
		return KTimestamp
	case 'm':
		return KMonth
	case 'd':
		return KDate
	case 'z':
		return KDatetime
	case 'n':
		return KTimespan
	case 'u':
		return KMinute
	case 'v':
		return KSecond
	case 't':
		return KTime
	default:
		return KList
	}
}
