package colbuf

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
)

// batchOf builds a batch of width cells per row from rows, a nil cell NULL.
func batchOf(width int, rows ...[][]byte) *pgv3.Batch {
	b := &pgv3.Batch{}
	b.Reset(width)
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// textRow makes a row of text cells.
func textRow(cells ...string) [][]byte {
	row := make([][]byte, len(cells))
	for j, c := range cells {
		row[j] = []byte(c)
	}
	return row
}

func TestBuildTypedVectors(t *testing.T) {
	b := Get()
	defer b.Release()
	specs := []Spec{
		{Name: "ord", QType: qval.KLong, Discard: true},
		{Name: "b", QType: qval.KBool},
		{Name: "h", QType: qval.KShort},
		{Name: "i", QType: qval.KInt},
		{Name: "j", QType: qval.KLong},
		{Name: "e", QType: qval.KReal},
		{Name: "f", QType: qval.KFloat},
		{Name: "s", QType: qval.KSymbol},
		{Name: "d", QType: qval.KDate},
		{Name: "t", QType: qval.KTime},
		{Name: "p", QType: qval.KTimestamp},
	}
	b.Reset(specs, 4)
	rows := [][]string{
		{"0", "t", "10", "100", "1000", "1.5", "2.5", "s0", "2000-01-01", "00:00:00.000", "2000-01-01 00:00:00"},
		{"1", "f", "11", "101", "1001", "2.5", "3.5", "s1", "2000-01-02", "00:00:01.000", "2000-01-01 00:00:01"},
	}
	if err := b.AppendBatch(batchOf(len(specs), textRow(rows[0]...), textRow(rows[1]...))); err != nil {
		t.Fatal(err)
	}
	names, data := b.Build()
	if len(names) != 10 || len(data) != 10 {
		t.Fatalf("got %d names %d cols, want 10", len(names), len(data))
	}
	if names[0] != "b" || names[9] != "p" {
		t.Fatalf("names = %v", names)
	}
	if v, ok := data[0].(qval.BoolVec); !ok || len(v) != 2 || !v[0] || v[1] {
		t.Fatalf("bool col = %#v", data[0])
	}
	if v, ok := data[1].(qval.ShortVec); !ok || v[1] != 11 {
		t.Fatalf("short col = %#v", data[1])
	}
	if v, ok := data[2].(qval.IntVec); !ok || v[0] != 100 {
		t.Fatalf("int col = %#v", data[2])
	}
	if v, ok := data[3].(qval.LongVec); !ok || v[1] != 1001 {
		t.Fatalf("long col = %#v", data[3])
	}
	if v, ok := data[4].(qval.RealVec); !ok || v[0] != 1.5 {
		t.Fatalf("real col = %#v", data[4])
	}
	if v, ok := data[5].(qval.FloatVec); !ok || v[1] != 3.5 {
		t.Fatalf("float col = %#v", data[5])
	}
	if v, ok := data[6].(qval.SymbolVec); !ok || v[0] != "s0" {
		t.Fatalf("sym col = %#v", data[6])
	}
	if v, ok := data[7].(qval.TemporalVec); !ok || v.T != qval.KDate || v.V[1] != 1 {
		t.Fatalf("date col = %#v", data[7])
	}
	if v, ok := data[8].(qval.TemporalVec); !ok || v.T != qval.KTime || v.V[1] != 1000 {
		t.Fatalf("time col = %#v", data[8])
	}
	if v, ok := data[9].(qval.TemporalVec); !ok || v.T != qval.KTimestamp || v.V[1] != 1e9 {
		t.Fatalf("timestamp col = %#v", data[9])
	}
	if b.Rows() != 2 {
		t.Fatalf("rows = %d", b.Rows())
	}
}

func TestAppendNull(t *testing.T) {
	b := Get()
	defer b.Release()
	specs := []Spec{
		{Name: "b", QType: qval.KBool},
		{Name: "h", QType: qval.KShort},
		{Name: "i", QType: qval.KInt},
		{Name: "j", QType: qval.KLong},
		{Name: "e", QType: qval.KReal},
		{Name: "f", QType: qval.KFloat},
		{Name: "s", QType: qval.KSymbol},
		{Name: "p", QType: qval.KTimestamp},
	}
	b.Reset(specs, 0)
	if err := b.AppendBatch(batchOf(len(specs), make([][]byte, len(specs)))); err != nil {
		t.Fatal(err)
	}
	_, data := b.Build()
	for k, col := range data {
		if specs[k].QType == qval.KBool {
			// booleans have no null; the convention is false
			if v := col.(qval.BoolVec); v[0] {
				t.Errorf("bool null should be false")
			}
			continue
		}
		if !qval.NullAt(col, 0) {
			t.Errorf("column %s row 0 not null: %#v", specs[k].Name, col)
		}
	}
}

// TestEmptyColumnsMatchEmptyVec pins the zero-row shape against what the
// text path produces via qval.EmptyVec.
func TestEmptyColumnsMatchEmptyVec(t *testing.T) {
	for _, qt := range []qval.Type{qval.KBool, qval.KShort, qval.KInt, qval.KLong,
		qval.KReal, qval.KFloat, qval.KSymbol, qval.KDate, qval.KTime, qval.KTimestamp} {
		b := Get()
		b.Reset([]Spec{{Name: "c", QType: qt}}, 0)
		_, data := b.Build()
		want := qval.EmptyVec(qt)
		if fmt.Sprintf("%#v", data[0]) != fmt.Sprintf("%#v", want) {
			t.Errorf("type %d: got %#v want %#v", qt, data[0], want)
		}
		b.Release()
	}
}

func TestBuildAllDiscardedIsNil(t *testing.T) {
	b := Get()
	defer b.Release()
	b.Reset([]Spec{{Name: "ord", QType: qval.KLong, Discard: true}}, 0)
	if err := b.AppendBatch(batchOf(1, textRow("7"))); err != nil {
		t.Fatal(err)
	}
	names, data := b.Build()
	if names != nil || data != nil {
		t.Fatalf("all-discarded build: names=%v data=%v", names, data)
	}
}

func TestAppendIntRange(t *testing.T) {
	b := Get()
	defer b.Release()
	specs := []Spec{{Name: "h", QType: qval.KShort}, {Name: "i", QType: qval.KInt}}
	for _, c := range []struct {
		row []string
		ok  bool
	}{
		{[]string{"32768", "0"}, false},       // short overflow
		{[]string{"0", "-2147483649"}, false}, // int underflow
		{[]string{"-32768", "2147483647"}, true},
	} {
		b.Reset(specs, 0)
		if err := b.AppendBatch(batchOf(2, textRow(c.row...))); (err == nil) != c.ok {
			t.Errorf("%v: err = %v", c.row, err)
		}
	}
}

func TestAppendFloatNaNCanonical(t *testing.T) {
	b := Get()
	defer b.Release()
	// an arithmetic NaN with a different payload from math.NaN()
	var weird [8]byte
	binary.BigEndian.PutUint64(weird[:], 0x7FF8000000000000)
	b.Reset([]Spec{{Name: "f", QType: qval.KFloat, Binary: true}}, 0)
	if err := b.AppendBatch(batchOf(1, [][]byte{weird[:]})); err != nil {
		t.Fatal(err)
	}
	_, data := b.Build()
	got := math.Float64bits(float64(data[0].(qval.FloatVec)[0]))
	want := math.Float64bits(math.NaN())
	if got != want {
		t.Fatalf("NaN bits %#x, want canonical %#x", got, want)
	}
}

func TestParseIntTextMatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "+7", "32767", "32768", "-32768", "-32769",
		"2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809",
		"", "-", "+", "1.5", "1e3", " 1", "1 ", "007", "99999999999999999999999",
	}
	for _, bits := range []int{16, 32, 64} {
		for _, s := range cases {
			want, werr := strconv.ParseInt(s, 10, bits)
			got, gerr := ParseIntText(s, bits)
			if (werr == nil) != (gerr == nil) {
				t.Errorf("ParseIntText(%q,%d): err=%v, strconv err=%v", s, bits, gerr, werr)
				continue
			}
			if werr == nil && got != want {
				t.Errorf("ParseIntText(%q,%d) = %d, want %d", s, bits, got, want)
			}
		}
	}
}

func TestParseDateTextMatchesTimeParse(t *testing.T) {
	cases := []string{
		"2000-01-01", "1999-12-31", "2024-02-29", "2023-02-29", "2023-02-28",
		"0001-01-01", "9999-12-31", "2024-13-01", "2024-00-10", "2024-06-31",
		"2024-6-01", "24-06-01", "2024-06-1", "garbage", "", "2024-06-015",
	}
	for _, s := range cases {
		tm, werr := time.Parse("2006-01-02", s)
		got, gerr := ParseDateText(s)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("ParseDateText(%q): err=%v, time.Parse err=%v", s, gerr, werr)
			continue
		}
		if werr == nil {
			if want := qval.DateFromTime(tm); got != want {
				t.Errorf("ParseDateText(%q) = %d, want %d", s, got, want)
			}
		}
	}
}

// TestParseDateTextFarYears: days count exactly across the whole
// four-digit-year range, past the ±292 years a time.Duration spans.
func TestParseDateTextFarYears(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"1700-01-01", -109572},
		{"2400-01-01", 146097},
		{"0000-01-01", -730485},
		{"0000-02-29", -730426},
		{"1600-02-29", -146038},
		{"9999-12-31", 2921939},
	} {
		if got, err := ParseDateText(c.in); err != nil || got != c.want {
			t.Errorf("ParseDateText(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	// every day round-trips through the server's rendering
	for d := int64(-730485); d <= 2921939; d += 3 {
		s := pgdb.FormatValue(d, "date")
		if got, err := ParseDateText(s); err != nil || got != d {
			t.Fatalf("ParseDateText(%q) = %d, %v; want %d", s, got, err, d)
		}
	}
}

// TestParseTimeTextSign: a negative time of day is a sign before the
// absolute value, as the server renders it.
func TestParseTimeTextSign(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
	}{
		{"-00:00:00.999", -999},
		{"-00:00:00.001", -1},
		{"-00:30:00.000", -1800000},
		{"-01:00:00.001", -3600001},
		{"-100:00:00", -360000000},
	} {
		if got, err := ParseTimeText(c.in); err != nil || got != c.want {
			t.Errorf("ParseTimeText(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"-", "-12:34", "-:00:00"} {
		if _, err := ParseTimeText(bad); err == nil {
			t.Errorf("ParseTimeText(%q) accepted", bad)
		}
	}
	for ms := int64(-400000000); ms <= 400000000; ms += 99991 {
		s := pgdb.FormatValue(ms, "time")
		if got, err := ParseTimeText(s); err != nil || got != ms {
			t.Fatalf("ParseTimeText(%q) = %d, %v; want %d", s, got, err, ms)
		}
	}
}

func TestParseTimestampTextMatchesTimeParse(t *testing.T) {
	layouts := []string{"2006-01-02 15:04:05.999999999", "2006-01-02T15:04:05.999999999", "2006-01-02"}
	ref := func(s string) (int64, bool) {
		for _, l := range layouts {
			if tm, err := time.Parse(l, s); err == nil {
				return qval.TimestampFromTime(tm), true
			}
		}
		return 0, false
	}
	cases := []string{
		"2000-01-01 00:00:00", "2000-01-01", "1999-12-31 23:59:59.999999999",
		"2024-02-29T12:34:56.5", "2024-06-15 06:07:08.123456",
		"2024-06-15 6:07:08", "2024-06-15 23:59:59", "2024-06-15 24:00:00",
		"2024-06-15 12:60:00", "2024-06-15 12:00:60", "2024-06-15 12:00",
		"2024-06-15 12:00:00.", "2024-06-15 12:00:00.1234567891",
		"2024-06-15x12:00:00", "2024-06-15 12:0:00", "2024-06-15 12:00:0",
		"", "2024-06-15 ", "not-a-timestamp",
	}
	for _, s := range cases {
		want, wok := ref(s)
		got, gerr := ParseTimestampText(s)
		if wok != (gerr == nil) {
			t.Errorf("ParseTimestampText(%q): err=%v, time.Parse ok=%v", s, gerr, wok)
			continue
		}
		if wok && got != want {
			t.Errorf("ParseTimestampText(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestParseTimeTextVariants(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"00:00:00", 0, false},
		{"00:00:00.000", 0, false},
		{"23:59:59.999", 86399999, false},
		{"12:34:56.5", 45296500, false},
		{"12:34:56.50", 45296500, false},
		{"12:34:56.500999", 45296500, false},
		{"1:2:3", 3723000, false},
		{"12:34", 0, true},
		{"::", 0, true},
		{"ab:cd:ef", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := ParseTimeText(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseTimeText(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseTimeText(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	// []byte instantiation decodes identically
	if got, err := ParseTimeText([]byte("09:08:07.123")); err != nil || got != 32887123 {
		t.Errorf("ParseTimeText([]byte) = %d, %v", got, err)
	}
}

func TestAppendTextPerColumnDecode(t *testing.T) {
	b := Get()
	defer b.Release()
	specs := []Spec{
		{Name: "b", QType: qval.KBool},
		{Name: "j", QType: qval.KLong},
		{Name: "f", QType: qval.KFloat},
		{Name: "s", QType: qval.KSymbol},
		{Name: "d", QType: qval.KDate},
	}
	b.Reset(specs, 1)
	if err := b.AppendBatch(batchOf(len(specs), textRow("t", "42", "-Infinity", "hello", "2000-01-02"))); err != nil {
		t.Fatal(err)
	}
	_, data := b.Build()
	if v := data[0].(qval.BoolVec); !v[0] {
		t.Error("bool decode")
	}
	if v := data[1].(qval.LongVec); v[0] != 42 {
		t.Error("long decode")
	}
	if v := data[2].(qval.FloatVec); !math.IsInf(v[0], -1) {
		t.Error("float decode")
	}
	if v := data[3].(qval.SymbolVec); v[0] != "hello" {
		t.Error("symbol decode")
	}
	if v := data[4].(qval.TemporalVec); v.V[0] != 1 {
		t.Error("date decode")
	}
}

// TestPoolReuseIsolation: building, releasing, and rebuilding must not let
// the second result alias the first result's storage.
func TestPoolReuseIsolation(t *testing.T) {
	b := Get()
	b.Reset([]Spec{{Name: "j", QType: qval.KLong}}, 2)
	if err := b.AppendBatch(batchOf(1, textRow("1"))); err != nil {
		t.Fatal(err)
	}
	_, first := b.Build()
	b.Release()

	b2 := Get()
	b2.Reset([]Spec{{Name: "j", QType: qval.KLong}}, 2)
	if err := b2.AppendBatch(batchOf(1, textRow("99"))); err != nil {
		t.Fatal(err)
	}
	_, second := b2.Build()
	b2.Release()

	if v := first[0].(qval.LongVec); v[0] != 1 {
		t.Fatalf("first result mutated: %v", v)
	}
	if v := second[0].(qval.LongVec); v[0] != 99 {
		t.Fatalf("second result wrong: %v", v)
	}
}

// TestSymbolInterning checks that text symbol cells decode to their own
// value whether or not the intern table had room, never alias the batch
// they were read from, and that the table empties between results.
func TestSymbolInterning(t *testing.T) {
	b := Get()
	defer b.Release()
	specs := []Spec{{Name: "s", QType: qval.KSymbol}, {Name: "k", QType: qval.KSymbol}}
	n := 3 * internBound
	want := [2][]string{}
	var batch pgv3.Batch
	for round := 0; round < 2; round++ {
		b.Reset(specs, 0)
		want = [2][]string{}
		batch.Reset(len(specs))
		for r := 0; r < n; r++ {
			cells := [2]string{[]string{"GOOG", "IBM", ""}[r%3], fmt.Sprintf("k%d-%d", round, r)}
			batch.AppendRow(textRow(cells[:]...))
			for j, c := range cells {
				want[j] = append(want[j], c)
			}
			// the wire reuses its batch for the next rows
			if batch.Rows() == 7 || r == n-1 {
				if err := b.AppendBatch(&batch); err != nil {
					t.Fatal(err)
				}
				batch.Reset(len(specs))
			}
		}
		if len(b.interns[1]) != internBound {
			t.Fatalf("round %d: distinct column holds %d interned strings, bound is %d", round, len(b.interns[1]), internBound)
		}
		_, data := b.Build()
		for j := range specs {
			if got := []string(data[j].(qval.SymbolVec)); !slices.Equal(got, want[j]) {
				t.Fatalf("round %d column %d: decoded symbols differ", round, j)
			}
		}
	}
	b.Reset(specs, 0)
	for j := range specs {
		if len(b.interns[j]) != 0 {
			t.Fatalf("column %d: intern table survived Reset with %d entries", j, len(b.interns[j]))
		}
	}
	// a repeated symbol costs no allocation once interned
	one := []Spec{specs[0]}
	b.Reset(one, 128)
	msft := batchOf(1, textRow("MSFT"))
	b.AppendBatch(msft)
	if allocs := testing.AllocsPerRun(100, func() { b.AppendBatch(msft) }); allocs != 0 {
		t.Errorf("repeated symbol: %.2f allocations per cell", allocs)
	}
}

// TestAppendBinaryDecode decodes each binary-set form into its column and
// refuses cells of the wrong width or in a column without a binary form.
func TestAppendBinaryDecode(t *testing.T) {
	b := Get()
	defer b.Release()
	specs := []Spec{
		{Name: "b", QType: qval.KBool, Binary: true},
		{Name: "h", QType: qval.KShort, Binary: true},
		{Name: "i", QType: qval.KInt, Binary: true},
		{Name: "j", QType: qval.KLong, Binary: true},
		{Name: "f", QType: qval.KFloat, Binary: true},
		{Name: "d", QType: qval.KDate, Binary: true},
		{Name: "t", QType: qval.KTime, Binary: true},
		{Name: "s", QType: qval.KSymbol, Binary: true},
	}
	cells := [][]byte{
		{1},
		{0xff, 0xfe},
		{0x80, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 42},
		{0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, // a NaN payload, canonicalized
		{0xff, 0xfe, 0x5e, 0xfc},       // -106756 days
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0xbd, 0xc0}, // -1000000 µs
		nil,
	}
	// one bad cell, every other NULL
	only := func(j int, cell []byte) *pgv3.Batch {
		row := make([][]byte, len(specs))
		row[j] = cell
		return batchOf(len(specs), row)
	}
	b.Reset(specs, 0)
	if err := b.AppendBatch(only(7, []byte("x"))); err == nil {
		t.Error("binary cell accepted in a symbol column")
	}
	for j, c := range cells[:7] {
		b.Reset(specs, 0)
		if err := b.AppendBatch(only(j, append(c, 0))); err == nil {
			t.Errorf("column %d: %d-byte cell accepted", j, len(c)+1)
		}
	}
	b.Reset(specs, 0)
	if err := b.AppendBatch(batchOf(len(specs), cells)); err != nil {
		t.Fatal(err)
	}
	_, data := b.Build()
	f := data[4].(qval.FloatVec)[0]
	if math.Float64bits(f) != math.Float64bits(math.NaN()) {
		t.Errorf("NaN bits %x, want canonical", math.Float64bits(f))
	}
	want := []qval.Value{
		qval.BoolVec{true}, qval.ShortVec{-2}, qval.IntVec{math.MinInt32}, qval.LongVec{42}, data[4],
		qval.TemporalVec{T: qval.KDate, V: []int64{-106756}}, qval.TemporalVec{T: qval.KTime, V: []int64{-1000}},
		qval.SymbolVec{""},
	}
	for j := range want {
		if !qval.EqualValues(data[j], want[j]) {
			t.Errorf("column %d = %v, want %v", j, data[j], want[j])
		}
	}
}

// TestHintedBuildDoesNotGrow pins what a result sized by its hint costs: a
// builder reset with hint n and fed n rows allocates each kept column's
// slice once and never grows it, a discarded column allocates nothing, and
// a symbol column of one repeated value allocates at most one string.
func TestHintedBuildDoesNotGrow(t *testing.T) {
	const n = 5000
	specs := []Spec{
		{Name: "ord", QType: qval.KLong, Discard: true},
		{Name: "j", QType: qval.KLong, Binary: true},
		{Name: "f", QType: qval.KFloat},
		{Name: "b", QType: qval.KBool},
		{Name: "s", QType: qval.KSymbol},
		{Name: "d", QType: qval.KDate},
	}
	cells := [][]byte{[]byte("7"), binary.BigEndian.AppendUint64(nil, 42), []byte("1.5"), []byte("t"), []byte("GOOG"), []byte("2000-01-02")}
	const per = n / 5 // rows per batch
	batch := batchOf(len(specs))
	for range per {
		batch.AppendRow(cells)
	}
	b := Get()
	defer b.Release()
	feed := func(hint int) {
		b.Reset(specs, hint)
		for r := 0; r < n; r += per {
			if err := b.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	kept := len(specs) - 1
	if allocs := testing.AllocsPerRun(20, func() { feed(n) }); allocs > float64(kept+1) {
		t.Errorf("hinted build: %.1f allocations, want at most %d (one slice per kept column and one symbol)", allocs, kept+1)
	}
	feed(n)
	for j, c := range b.cols[1:] {
		if l, k := max(len(c.i64), len(c.f64), len(c.bools), len(c.syms)), max(cap(c.i64), cap(c.f64), cap(c.bools), cap(c.syms)); l != n || k != n {
			t.Errorf("column %s: %d rows in a slice of capacity %d, want %d in %d", specs[j+1].Name, l, k, n, n)
		}
	}
	// unhinted, every column grows by append: the allocations the hint saves
	if allocs := testing.AllocsPerRun(5, func() { feed(-1) }); allocs < float64(4*kept) {
		t.Errorf("unhinted build: only %.1f allocations", allocs)
	}
}
