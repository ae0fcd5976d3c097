// Package qipc implements the kdb+ Inter Process Communication wire
// protocol (paper §3.1, §4.2): the handshake ("user:pass" + capability
// byte, single-byte reply), the 8-byte message header with async/sync/
// response types, the serialized Q object format — column-oriented, one
// message per result set, in contrast to PG v3's row streaming — and the kx
// LZ-style message compression.
package qipc

import (
	"encoding/binary"
	"fmt"
	"math"

	"hyperq/internal/qlang/qval"
)

// MsgType is the QIPC message type byte.
type MsgType byte

// Message types.
const (
	Async    MsgType = 0
	Sync     MsgType = 1
	Response MsgType = 2
)

func (m MsgType) String() string {
	switch m {
	case Async:
		return "async"
	case Sync:
		return "sync"
	case Response:
		return "response"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(m))
	}
}

// Error is a QIPC encode/decode error.
type Error struct {
	Msg string
}

func (e *Error) Error() string { return "qipc: " + e.Msg }

func errf(format string, args ...any) *Error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// EncodeValue serializes a Q value in the kx object format (little endian).
func EncodeValue(v qval.Value) ([]byte, error) {
	var b []byte
	return appendValue(b, v)
}

func appendValue(b []byte, v qval.Value) ([]byte, error) {
	switch x := v.(type) {
	case qval.Bool:
		b = append(b, 0xff) // -1
		if x {
			return append(b, 1), nil
		}
		return append(b, 0), nil
	case qval.Byte:
		return append(b, byte(0x100-4), byte(x)), nil
	case qval.Short:
		b = append(b, byte(0x100-5))
		return binary.LittleEndian.AppendUint16(b, uint16(x)), nil
	case qval.Int:
		b = append(b, byte(0x100-6))
		return binary.LittleEndian.AppendUint32(b, uint32(x)), nil
	case qval.Long:
		b = append(b, byte(0x100-7))
		return binary.LittleEndian.AppendUint64(b, uint64(x)), nil
	case qval.Real:
		b = append(b, byte(0x100-8))
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(x))), nil
	case qval.Float:
		b = append(b, byte(0x100-9))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(x))), nil
	case qval.Char:
		return append(b, byte(0x100-10), byte(x)), nil
	case qval.Symbol:
		b = append(b, byte(0x100-11))
		b = append(b, x...)
		return append(b, 0), nil
	case qval.Temporal:
		return appendTemporalAtom(b, x)
	case qval.Datetime:
		b = append(b, byte(0x100-15))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(x))), nil
	case qval.BoolVec:
		b = appendVecHeader(b, 1, len(x))
		for _, e := range x {
			if e {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		return b, nil
	case qval.ByteVec:
		b = appendVecHeader(b, 4, len(x))
		return append(b, x...), nil
	case qval.ShortVec:
		b = appendVecHeader(b, 5, len(x))
		for _, e := range x {
			b = binary.LittleEndian.AppendUint16(b, uint16(e))
		}
		return b, nil
	case qval.IntVec:
		b = appendVecHeader(b, 6, len(x))
		for _, e := range x {
			b = binary.LittleEndian.AppendUint32(b, uint32(e))
		}
		return b, nil
	case qval.LongVec:
		b = appendVecHeader(b, 7, len(x))
		for _, e := range x {
			b = binary.LittleEndian.AppendUint64(b, uint64(e))
		}
		return b, nil
	case qval.RealVec:
		b = appendVecHeader(b, 8, len(x))
		for _, e := range x {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(e))
		}
		return b, nil
	case qval.FloatVec:
		b = appendVecHeader(b, 9, len(x))
		for _, e := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
		}
		return b, nil
	case qval.CharVec:
		b = appendVecHeader(b, 10, len(x))
		return append(b, x...), nil
	case qval.SymbolVec:
		b = appendVecHeader(b, 11, len(x))
		for _, e := range x {
			b = append(b, e...)
			b = append(b, 0)
		}
		return b, nil
	case qval.TemporalVec:
		return appendTemporalVec(b, x)
	case qval.DatetimeVec:
		b = appendVecHeader(b, 15, len(x))
		for _, e := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
		}
		return b, nil
	case qval.List:
		b = appendVecHeader(b, 0, len(x))
		var err error
		for _, e := range x {
			b, err = appendValue(b, e)
			if err != nil {
				return nil, err
			}
		}
		return b, nil
	case *qval.Table:
		// table: 0x62, attrs, then a dict of column symbols to column list
		b = append(b, 98, 0)
		return appendValue(b, &qval.Dict{Keys: qval.SymbolVec(x.Cols), Vals: qval.List(x.Data)})
	case *qval.Dict:
		b = append(b, 99)
		var err error
		b, err = appendValue(b, x.Keys)
		if err != nil {
			return nil, err
		}
		return appendValue(b, x.Vals)
	case *qval.Lambda:
		b = append(b, 100)
		b = append(b, 0) // empty context
		return appendValue(b, qval.CharVec(x.Source))
	case qval.Unary:
		return append(b, 101, byte(x)), nil
	case *qval.QError:
		b = append(b, 0x80)
		b = append(b, x.Msg...)
		return append(b, 0), nil
	default:
		return nil, errf("cannot encode %T", v)
	}
}

func appendVecHeader(b []byte, t int8, n int) []byte {
	b = append(b, byte(t), 0) // type, attributes
	return binary.LittleEndian.AppendUint32(b, uint32(n))
}

func appendTemporalAtom(b []byte, x qval.Temporal) ([]byte, error) {
	switch x.T {
	case qval.KTimestamp, qval.KTimespan:
		b = append(b, byte(int8(-x.T)))
		return binary.LittleEndian.AppendUint64(b, uint64(x.V)), nil
	case qval.KMonth, qval.KDate, qval.KMinute, qval.KSecond, qval.KTime:
		b = append(b, byte(int8(-x.T)))
		return binary.LittleEndian.AppendUint32(b, uint32(narrow32(x.V))), nil
	default:
		return nil, errf("bad temporal type %d", x.T)
	}
}

func appendTemporalVec(b []byte, x qval.TemporalVec) ([]byte, error) {
	b = appendVecHeader(b, int8(x.T), len(x.V))
	switch x.T {
	case qval.KTimestamp, qval.KTimespan:
		for _, e := range x.V {
			b = binary.LittleEndian.AppendUint64(b, uint64(e))
		}
	case qval.KMonth, qval.KDate, qval.KMinute, qval.KSecond, qval.KTime:
		for _, e := range x.V {
			b = binary.LittleEndian.AppendUint32(b, uint32(narrow32(e)))
		}
	default:
		return nil, errf("bad temporal vec type %d", x.T)
	}
	return b, nil
}

// narrow32 maps the 64-bit internal null to the 32-bit wire null.
func narrow32(v int64) int32 {
	if v == qval.NullLong {
		return math.MinInt32
	}
	return int32(v)
}

func widen32(v int32) int64 {
	if v == math.MinInt32 {
		return qval.NullLong
	}
	return int64(v)
}

// DecodeValue deserializes one Q object, returning the value and bytes
// consumed.
func DecodeValue(b []byte) (qval.Value, int, error) {
	d := &decoder{b: b}
	v, err := d.value()
	if err != nil {
		return nil, 0, err
	}
	return v, d.pos, nil
}

type decoder struct {
	b   []byte
	pos int
}

func (d *decoder) need(n int) error {
	if d.pos+n > len(d.b) {
		return errf("truncated message: need %d bytes at %d, have %d", n, d.pos, len(d.b))
	}
	return nil
}

func (d *decoder) u8() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.b[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(d.b[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *decoder) sym() (string, error) {
	start := d.pos
	for d.pos < len(d.b) && d.b[d.pos] != 0 {
		d.pos++
	}
	if d.pos >= len(d.b) {
		return "", errf("unterminated symbol")
	}
	s := string(d.b[start:d.pos])
	d.pos++ // NUL
	return s, nil
}

// vecLen reads a vector's attributes and length, whose elements take at
// least width bytes each: a length the rest of the message cannot hold is
// refused before anything is sized from it.
func (d *decoder) vecLen(width int) (int, error) {
	if _, err := d.u8(); err != nil { // attributes
		return 0, err
	}
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(width) > int64(len(d.b)-d.pos) {
		return 0, errf("implausible vector length %d", n)
	}
	return int(n), nil
}

func (d *decoder) value() (qval.Value, error) {
	tb, err := d.u8()
	if err != nil {
		return nil, err
	}
	t := int8(tb)
	switch t {
	case -1:
		v, err := d.u8()
		return qval.Bool(v != 0), err
	case -4:
		v, err := d.u8()
		return qval.Byte(v), err
	case -5:
		v, err := d.u16()
		return qval.Short(int16(v)), err
	case -6:
		v, err := d.u32()
		return qval.Int(int32(v)), err
	case -7:
		v, err := d.u64()
		return qval.Long(int64(v)), err
	case -8:
		v, err := d.u32()
		return qval.Real(math.Float32frombits(v)), err
	case -9:
		v, err := d.u64()
		return qval.Float(math.Float64frombits(v)), err
	case -10:
		v, err := d.u8()
		return qval.Char(v), err
	case -11:
		s, err := d.sym()
		return qval.Symbol(s), err
	case -12, -16:
		v, err := d.u64()
		return qval.Temporal{T: qval.Type(-t), V: int64(v)}, err
	case -13, -14, -17, -18, -19:
		v, err := d.u32()
		return qval.Temporal{T: qval.Type(-t), V: widen32(int32(v))}, err
	case -15:
		v, err := d.u64()
		return qval.Datetime(math.Float64frombits(v)), err
	case 0:
		// an element takes at least two bytes (a type and a one-byte atom)
		n, err := d.vecLen(2)
		if err != nil {
			return nil, err
		}
		// grown as elements decode, not sized by the claim: each list on a
		// chain of nested ones would otherwise hold the whole message's
		// worth of slots while its first element decodes
		out := make(qval.List, 0, min(n, 64))
		for i := 0; i < n; i++ {
			e, err := d.value()
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		return out, nil
	case 1:
		n, err := d.vecLen(1)
		if err != nil {
			return nil, err
		}
		out := make(qval.BoolVec, n)
		for i := range out {
			out[i] = d.b[d.pos+i] != 0
		}
		d.pos += n
		return out, nil
	case 4:
		n, err := d.vecLen(1)
		if err != nil {
			return nil, err
		}
		out := make(qval.ByteVec, n)
		copy(out, d.b[d.pos:])
		d.pos += n
		return out, nil
	case 5:
		n, err := d.vecLen(2)
		if err != nil {
			return nil, err
		}
		out := make(qval.ShortVec, n)
		for i := range out {
			v, err := d.u16()
			if err != nil {
				return nil, err
			}
			out[i] = int16(v)
		}
		return out, nil
	case 6:
		n, err := d.vecLen(4)
		if err != nil {
			return nil, err
		}
		out := make(qval.IntVec, n)
		for i := range out {
			v, err := d.u32()
			if err != nil {
				return nil, err
			}
			out[i] = int32(v)
		}
		return out, nil
	case 7:
		n, err := d.vecLen(8)
		if err != nil {
			return nil, err
		}
		out := make(qval.LongVec, n)
		for i := range out {
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			out[i] = int64(v)
		}
		return out, nil
	case 8:
		n, err := d.vecLen(4)
		if err != nil {
			return nil, err
		}
		out := make(qval.RealVec, n)
		for i := range out {
			v, err := d.u32()
			if err != nil {
				return nil, err
			}
			out[i] = math.Float32frombits(v)
		}
		return out, nil
	case 9:
		n, err := d.vecLen(8)
		if err != nil {
			return nil, err
		}
		out := make(qval.FloatVec, n)
		for i := range out {
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			out[i] = math.Float64frombits(v)
		}
		return out, nil
	case 10:
		n, err := d.vecLen(1)
		if err != nil {
			return nil, err
		}
		out := make(qval.CharVec, n)
		copy(out, d.b[d.pos:])
		d.pos += n
		return out, nil
	case 11:
		n, err := d.vecLen(1)
		if err != nil {
			return nil, err
		}
		out := make(qval.SymbolVec, n)
		for i := range out {
			s, err := d.sym()
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	case 12, 16:
		n, err := d.vecLen(8)
		if err != nil {
			return nil, err
		}
		out := qval.TemporalVec{T: qval.Type(t), V: make([]int64, n)}
		for i := range out.V {
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			out.V[i] = int64(v)
		}
		return out, nil
	case 13, 14, 17, 18, 19:
		n, err := d.vecLen(4)
		if err != nil {
			return nil, err
		}
		out := qval.TemporalVec{T: qval.Type(t), V: make([]int64, n)}
		for i := range out.V {
			v, err := d.u32()
			if err != nil {
				return nil, err
			}
			out.V[i] = widen32(int32(v))
		}
		return out, nil
	case 15:
		n, err := d.vecLen(8)
		if err != nil {
			return nil, err
		}
		out := make(qval.DatetimeVec, n)
		for i := range out {
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			out[i] = math.Float64frombits(v)
		}
		return out, nil
	case 98:
		if _, err := d.u8(); err != nil { // attributes
			return nil, err
		}
		dv, err := d.value()
		if err != nil {
			return nil, err
		}
		dict, ok := dv.(*qval.Dict)
		if !ok {
			return nil, errf("table body is not a dict")
		}
		syms, ok := dict.Keys.(qval.SymbolVec)
		if !ok {
			return nil, errf("table columns are not symbols")
		}
		vals, ok := dict.Vals.(qval.List)
		if !ok {
			return nil, errf("table values are not a list")
		}
		if len(syms) != len(vals) {
			return nil, errf("table column mismatch")
		}
		for _, v := range vals {
			if v.Len() != vals[0].Len() {
				return nil, errf("table columns differ in length")
			}
		}
		data := make([]qval.Value, len(vals))
		copy(data, vals)
		return qval.NewTable(append([]string(nil), syms...), data), nil
	case 99:
		keys, err := d.value()
		if err != nil {
			return nil, err
		}
		vals, err := d.value()
		if err != nil {
			return nil, err
		}
		return &qval.Dict{Keys: keys, Vals: vals}, nil
	case 100:
		if _, err := d.sym(); err != nil { // context
			return nil, err
		}
		body, err := d.value()
		if err != nil {
			return nil, err
		}
		src, ok := body.(qval.CharVec)
		if !ok {
			return nil, errf("lambda body is not a char vector")
		}
		return &qval.Lambda{Source: string(src)}, nil
	case 101:
		v, err := d.u8()
		return qval.Unary(v), err
	case -128:
		msg, err := d.sym()
		if err != nil {
			return nil, err
		}
		return &qval.QError{Msg: msg}, nil
	default:
		return nil, errf("unsupported type code %d", t)
	}
}
