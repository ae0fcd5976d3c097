package pgdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"hyperq/internal/wire/pgv3"
)

// TestFormatValuePinned pins the text rendering of every value kind byte for
// byte. The expectations are what the renderer produced when dates went
// through time.Time.Format and times of day through fmt.Sprintf, so the
// integer date arithmetic and the hand-written padding cannot drift from
// them; a negative time of day is a sign before its absolute value, which
// colbuf.ParseTimeText reads back.
func TestFormatValuePinned(t *testing.T) {
	cases := []struct {
		v    any
		typ  string
		want string
	}{
		{nil, "varchar", ""},
		{nil, "date", ""},
		{"", "varchar", ""},
		{"hello", "text", "hello"},
		{true, "boolean", "t"},
		{false, "boolean", "f"},
		{math.NaN(), "double precision", "NaN"},
		{math.Inf(1), "double precision", "Infinity"},
		{math.Inf(-1), "real", "-Infinity"},
		{math.Copysign(0, -1), "double precision", "-0"},
		{0.0, "double precision", "0"},
		{3.25, "double precision", "3.25"},
		{0.1, "real", "0.1"},
		{1e21, "double precision", "1e+21"},
		{1.5e-7, "double precision", "1.5e-07"},
		{-123456.789, "numeric", "-123456.789"},
		{int64(0), "bigint", "0"},
		{int64(-5), "integer", "-5"},
		{int64(math.MaxInt64), "bigint", "9223372036854775807"},
		{int64(math.MinInt64), "bigint", "-9223372036854775808"},
		{int64(0), "time", "00:00:00.000"},
		{int64(34200000), "time", "09:30:00.000"},
		{int64(86399999), "time", "23:59:59.999"},
		{int64(86400000), "time", "24:00:00.000"},
		{int64(360000000), "time", "100:00:00.000"},
		{int64(90061001), "time", "25:01:01.001"},
		{int64(-1), "time", "-00:00:00.001"},
		{int64(-999), "time", "-00:00:00.999"},
		{int64(-1000), "time", "-00:00:01.000"},
		{int64(-61001), "time", "-00:01:01.001"},
		{int64(-3600001), "time", "-01:00:00.001"},
		{int64(-90061001), "time", "-25:01:01.001"},
		{int64(-360000000), "time", "-100:00:00.000"},
		{int64(math.MinInt64), "time", "-2562047788015:12:55.808"},
		{int64(0), "date", "2000-01-01"},
		{int64(59), "date", "2000-02-29"},
		{int64(8961), "date", "2024-07-14"},
		{int64(-1), "date", "1999-12-31"},
		{int64(-36524), "date", "1900-01-01"},
		{int64(-730425), "date", "0000-03-01"},
		{int64(-730485), "date", "0000-01-01"},
		{int64(-730486), "date", "-0001-12-31"},
		{int64(-1000000), "date", "-0738-02-03"},
		{int64(2921939), "date", "9999-12-31"},
		{int64(2921940), "date", "10000-01-01"},
		{int64(100000000), "date", "275790-09-13"},
		{int64(0), "timestamp", "2000-01-01 00:00:00"},
		{int64(1), "timestamp", "2000-01-01 00:00:00.000000001"},
		{int64(-1), "timestamp", "1999-12-31 23:59:59.999999999"},
		{int64(1500000000), "timestamp", "2000-01-01 00:00:01.5"},
		{int64(765432123456789000), "timestamptz", "2024-04-03 04:02:03.456789"},
		{int64(-86400000000000), "timestamp", "1999-12-31 00:00:00"},
		{int64(0), "interval", "0"},
		{int64(-5), "interval", "-5"},
		{int64(1500), "interval", "1500"},
		{7, "varchar", "7"},
	}
	for _, c := range cases {
		if got := FormatValue(c.v, c.typ); got != c.want {
			t.Errorf("FormatValue(%#v, %s) = %q, want %q", c.v, c.typ, got, c.want)
		}
		if got := string(AppendValue([]byte("x"), c.v, c.typ)); got != "x"+c.want {
			t.Errorf("AppendValue(%#v, %s) = %q, want %q", c.v, c.typ, got, "x"+c.want)
		}
	}
}

// TestAppendDateMatchesTime sweeps the whole four-digit-year range and its
// edges against the time.Time rendering the integer arithmetic replaced.
func TestAppendDateMatchesTime(t *testing.T) {
	check := func(d int64) {
		want := pgEpoch.AddDate(0, 0, int(d)).Format("2006-01-02")
		if got := string(appendDate(nil, d)); got != want {
			t.Fatalf("appendDate(%d) = %q, want %q", d, got, want)
		}
	}
	for d := int64(minYMDDay - 800); d <= maxYMDDay+800; d += 97 {
		check(d)
	}
	for d := int64(-1500); d <= 1500; d++ {
		check(d)
	}
	for _, edge := range []int64{minYMDDay, maxYMDDay} {
		for d := edge - 3; d <= edge+3; d++ {
			check(d)
		}
	}
}

// TestAppendTimeOfDayMatchesSprintf holds the time-of-day renderer to fmt's
// "%02d:%02d:%02d.%03d" of the absolute value, signed, on negative and
// over-24-hour values as well.
func TestAppendTimeOfDayMatchesSprintf(t *testing.T) {
	for ms := int64(-400000000); ms <= 400000000; ms += 999983 {
		for _, v := range []int64{ms, ms % 1000, ms % 60000, -(ms % 3600000)} {
			sign, a := "", v
			if v < 0 {
				sign, a = "-", -v
			}
			want := sign + fmt.Sprintf("%02d:%02d:%02d.%03d", a/3600000, a/60000%60, a/1000%60, a%1000)
			if got := string(appendTimeOfDay(nil, v)); got != want {
				t.Fatalf("appendTimeOfDay(%d) = %q, want %q", v, got, want)
			}
		}
	}
}

// TestAppendValueAllocatesNothing pins the property the PG v3 server relies
// on: rendering into a buffer with room allocates nothing for any kind it
// sends in bulk.
func TestAppendValueAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	vals := []struct {
		v   any
		typ string
	}{
		{int64(8961), "date"}, {int64(34200000), "time"}, {int64(765432123456789000), "timestamp"},
		{int64(-42), "bigint"}, {3.25, "double precision"}, {"GOOG", "varchar"}, {true, "boolean"},
	}
	for _, c := range vals {
		if n := testing.AllocsPerRun(100, func() { buf = AppendValue(buf[:0], c.v, c.typ) }); n != 0 {
			t.Errorf("AppendValue(%v, %s): %.0f allocations", c.v, c.typ, n)
		}
	}
}

// TestAppendBinary pins the binary cells pgserver sends and the values it
// refuses to send rather than truncate. A cell whose Go type is not its
// column's goes the text path's way: rendered, then parsed as the type.
func TestAppendBinary(t *testing.T) {
	be64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	cases := []struct {
		v    any
		typ  string
		want []byte
		code string
	}{
		{true, "boolean", []byte{1}, ""},
		{false, "boolean", []byte{0}, ""},
		{int64(1), "boolean", []byte{1}, ""},
		{"f", "boolean", []byte{0}, ""},
		{int64(-2), "smallint", []byte{0xff, 0xfe}, ""},
		{int64(40000), "smallint", nil, "22003"},
		{int64(math.MinInt32), "integer", []byte{0x80, 0, 0, 0}, ""},
		{int64(1 << 31), "integer", nil, "22003"},
		{"7", "integer", []byte{0, 0, 0, 7}, ""},
		{int64(-1), "bigint", be64(math.MaxUint64), ""},
		{int64(1500), "interval", be64(1500), ""},
		{3.0, "bigint", be64(3), ""},
		{2.5, "bigint", nil, "22P02"},
		{1e6, "bigint", nil, "22P02"}, // "1e+06", as the text path renders it
		{2.5, "double precision", be64(math.Float64bits(2.5)), ""},
		{math.Copysign(0, -1), "double precision", be64(1 << 63), ""},
		{int64(1<<53 + 1), "double precision", be64(math.Float64bits(1 << 53)), ""},
		{"Infinity", "double precision", be64(math.Float64bits(math.Inf(1))), ""},
		{true, "double precision", nil, "22P02"},
		{int64(-1), "date", []byte{0xff, 0xff, 0xff, 0xff}, ""},
		{"2000-01-02", "date", []byte{0, 0, 0, 1}, ""},
		{int64(1 << 40), "date", nil, "22008"},
		{1.5, "date", nil, "42804"},
		{int64(-999), "time", be64(^uint64(999000 - 1)), ""}, // -999000 µs
		{"00:00:01", "time", be64(1000000), ""},
		{int64(math.MaxInt64), "time", nil, "22008"},
		{"x", "varchar", nil, "0A000"},
		{int64(1), "timestamp", nil, "0A000"},
	}
	for _, c := range cases {
		got, err := appendBinary([]byte("x"), c.v, pgv3.OIDForType(c.typ), c.typ)
		var pe *Error
		switch {
		case c.code != "":
			if !errors.As(err, &pe) || pe.Code != c.code {
				t.Errorf("appendBinary(%#v, %s): err = %v, want SQLSTATE %s", c.v, c.typ, err, c.code)
			}
			if string(got) != "x" {
				t.Errorf("appendBinary(%#v, %s) failed but left %q", c.v, c.typ, got)
			}
		case err != nil:
			t.Errorf("appendBinary(%#v, %s): %v", c.v, c.typ, err)
		case !bytes.Equal(got, append([]byte("x"), c.want...)):
			t.Errorf("appendBinary(%#v, %s) = % x, want x % x", c.v, c.typ, got, c.want)
		}
	}
	buf := make([]byte, 0, 64)
	for _, c := range []struct {
		v   any
		typ string
	}{{int64(8961), "date"}, {int64(34200000), "time"}, {int64(-42), "bigint"}, {3.25, "double precision"}, {true, "boolean"}} {
		oid := pgv3.OIDForType(c.typ)
		if n := testing.AllocsPerRun(100, func() { buf, _ = appendBinary(buf[:0], c.v, oid, c.typ) }); n != 0 {
			t.Errorf("appendBinary(%v, %s): %.0f allocations", c.v, c.typ, n)
		}
	}
}
