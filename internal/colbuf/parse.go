package colbuf

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unsafe"

	"hyperq/internal/qlang/qval"
)

// Text abstracts over string and []byte cell payloads so the wire path can
// decode straight out of a batch of DataRows while the fallback text
// path shares the identical parser over strings. Both paths going through
// one implementation is what makes columnar-vs-text parity hold by
// construction for temporal and integer decoding.
type Text interface {
	~string | ~[]byte
}

// textIsTrue reports the PostgreSQL boolean text forms the text path
// accepts: "t", "true", "1" (anything else, including "f", is false).
func textIsTrue[T Text](s T) bool {
	switch len(s) {
	case 1:
		return s[0] == 't' || s[0] == '1'
	case 4:
		return s[0] == 't' && s[1] == 'r' && s[2] == 'u' && s[3] == 'e'
	}
	return false
}

// ParseIntText parses a base-10 integer with the same accept/reject set as
// strconv.ParseInt(s, 10, bits): optional sign, one or more digits, signed
// range check at the requested width.
func ParseIntText[T Text](s T, bits int) (int64, error) {
	i := 0
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		i = 1
	}
	if i == len(s) {
		return 0, fmt.Errorf("invalid integer %q", string(s))
	}
	var un uint64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid integer %q", string(s))
		}
		d := uint64(c - '0')
		if un > (math.MaxUint64-d)/10 {
			return 0, fmt.Errorf("integer %q out of range", string(s))
		}
		un = un*10 + d
	}
	cutoff := uint64(1) << uint(bits-1)
	if neg {
		if un > cutoff {
			return 0, fmt.Errorf("integer %q out of range", string(s))
		}
		return -int64(un), nil
	}
	if un >= cutoff {
		return 0, fmt.Errorf("integer %q out of range", string(s))
	}
	return int64(un), nil
}

// parseFloatText parses a float with strconv.ParseFloat semantics (accepts
// "NaN", "Infinity", "-Infinity", scientific notation; range errors
// propagate like the text path's).
func parseFloatText[T Text](s T, bits int) (float64, error) {
	return strconv.ParseFloat(asString(s), bits)
}

// asString views s as a string without copying. The returned string aliases
// s's bytes, so it must only be passed to calls that do not retain their
// argument (the strconv parsers); []byte callers own the buffer for the
// duration of the call.
func asString[T Text](s T) string {
	switch v := any(s).(type) {
	case string:
		return v
	case []byte:
		return unsafe.String(unsafe.SliceData(v), len(v))
	default:
		return string(s)
	}
}

// atoiText mirrors strconv.Atoi for the time-of-day parser: optional sign,
// digits, int range (practically unbounded for the widths involved).
func atoiText[T Text](s T) (int, error) {
	n, err := ParseIntText(s, 64)
	return int(n), err
}

func daysInMonth(y, m int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	}
}

// parseYMD parses the strict "YYYY-MM-DD" prefix time.Parse("2006-01-02")
// accepts: exactly 4-2-2 digits, month 1-12, day within the month.
func parseYMD[T Text](s T) (y, m, d int, err error) {
	bad := func() (int, int, int, error) {
		return 0, 0, 0, fmt.Errorf("bad date %q", string(s))
	}
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return bad()
	}
	num := func(lo, hi int) (int, bool) {
		n := 0
		for i := lo; i < hi; i++ {
			c := s[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int(c-'0')
		}
		return n, true
	}
	var ok bool
	if y, ok = num(0, 4); !ok {
		return bad()
	}
	if m, ok = num(5, 7); !ok || m < 1 || m > 12 {
		return bad()
	}
	if d, ok = num(8, 10); !ok || d < 1 || d > daysInMonth(y, m) {
		return bad()
	}
	return y, m, d, nil
}

// ParseDateText parses "YYYY-MM-DD" into days since the kdb+ epoch
// (2000-01-01), accepting what time.Parse("2006-01-02") does.
func ParseDateText[T Text](s T) (int64, error) {
	y, m, d, err := parseYMD(s)
	if err != nil {
		return 0, err
	}
	return qval.DaysFromCivil(int64(y), int64(m), int64(d)), nil
}

// ParseTimeText parses "[-]HH:MM:SS[.FFF...]" into milliseconds since
// midnight, the inverse of pgdb's rendering: a leading '-' negates the whole
// value, the fraction is the first three characters after the dot
// (zero-padded when shorter, parsed with Atoi semantics), and the remainder
// splits on ':' into exactly three Atoi-parsed fields with no range
// validation (hours past 24 count on).
func ParseTimeText[T Text](s T) (int64, error) {
	sign := int64(1)
	if len(s) > 0 && s[0] == '-' {
		sign, s = -1, s[1:]
	}
	frac := int64(0)
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			continue
		}
		var fs [3]byte
		for k := 0; k < 3; k++ {
			if i+1+k < len(s) {
				fs[k] = s[i+1+k]
			} else {
				fs[k] = '0'
			}
		}
		n, err := atoiText(fs[:])
		if err != nil {
			return 0, err
		}
		frac = int64(n)
		s = s[:i]
		break
	}
	var c1, c2 int
	colons := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			colons++
			switch colons {
			case 1:
				c1 = i
			case 2:
				c2 = i
			}
		}
	}
	if colons != 2 {
		return 0, fmt.Errorf("bad time %q", string(s))
	}
	h, e1 := atoiText(s[:c1])
	m, e2 := atoiText(s[c1+1 : c2])
	sec, e3 := atoiText(s[c2+1:])
	if e1 != nil || e2 != nil || e3 != nil {
		return 0, fmt.Errorf("bad time %q", string(s))
	}
	return sign * (int64(h)*3600000 + int64(m)*60000 + int64(sec)*1000 + frac), nil
}

// ParseTimestampText parses the timestamp layouts the text path tries
// ("2006-01-02 15:04:05.999999999", the 'T' separator variant, and the bare
// date) into nanoseconds since the kdb+ epoch.
func ParseTimestampText[T Text](s T) (int64, error) {
	bad := func() (int64, error) {
		return 0, fmt.Errorf("bad timestamp %q", string(s))
	}
	if len(s) < 10 {
		return bad()
	}
	y, m, d, err := parseYMD(s[:10])
	if err != nil {
		return bad()
	}
	if len(s) == 10 {
		return qval.TimestampFromTime(time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)), nil
	}
	if s[10] != ' ' && s[10] != 'T' {
		return bad()
	}
	rest := s[11:]
	// hour: one or two digits (time.Parse's "15" accepts both), < 24
	hl := 0
	for hl < len(rest) && hl < 2 && rest[hl] >= '0' && rest[hl] <= '9' {
		hl++
	}
	if hl == 0 || len(rest) < hl+6 || rest[hl] != ':' || rest[hl+3] != ':' {
		return bad()
	}
	num2 := func(i int) (int, bool) {
		if rest[i] < '0' || rest[i] > '9' || rest[i+1] < '0' || rest[i+1] > '9' {
			return 0, false
		}
		return int(rest[i]-'0')*10 + int(rest[i+1]-'0'), true
	}
	h := 0
	for i := 0; i < hl; i++ {
		h = h*10 + int(rest[i]-'0')
	}
	mi, ok1 := num2(hl + 1)
	sec, ok2 := num2(hl + 4)
	if !ok1 || !ok2 || h > 23 || mi > 59 || sec > 59 {
		return bad()
	}
	ns := 0
	if len(rest) > hl+6 {
		if rest[hl+6] != '.' || len(rest) == hl+7 {
			return bad()
		}
		digits := 0
		for i := hl + 7; i < len(rest); i++ {
			c := rest[i]
			if c < '0' || c > '9' {
				return bad()
			}
			// time.Parse truncates fractions beyond nanosecond precision
			if digits < 9 {
				ns = ns*10 + int(c-'0')
				digits++
			}
		}
		if digits == 0 {
			return bad()
		}
		for ; digits < 9; digits++ {
			ns *= 10
		}
	}
	t := time.Date(y, time.Month(m), d, h, mi, sec, ns, time.UTC)
	return qval.TimestampFromTime(t), nil
}
