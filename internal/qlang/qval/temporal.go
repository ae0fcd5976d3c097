package qval

import (
	"fmt"
	"time"
)

// KdbEpoch is the kdb+ temporal epoch, 2000.01.01T00:00:00 UTC. Dates count
// days from it, timestamps count nanoseconds from it.
var KdbEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	nsPerDay    = int64(24) * 3600 * 1e9
	msPerDay    = int64(24) * 3600 * 1e3
	secPerDay   = int64(24) * 3600
	minPerDay   = int64(24) * 60
	nsPerSecond = int64(1e9)
)

// DateFromTime converts a wall-clock time to a kdb+ date count (days since
// 2000.01.01, UTC). The count comes from the calendar date by integer
// arithmetic, so it is exact for every year: a time.Duration difference
// would saturate about 292 years from the epoch.
func DateFromTime(t time.Time) int64 {
	y, m, d := t.UTC().Date()
	return DaysFromCivil(int64(y), int64(m), int64(d))
}

// DaysFromCivil returns the days from 2000-01-01 to the proleptic Gregorian
// date y-m-d (Hinnant's days-from-civil over 400-year eras of 146097 days,
// years starting in March); m and d must be in range.
func DaysFromCivil(y, m, d int64) int64 {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era-- // floor division
	}
	yoe := y - era*400                       // [0, 399]
	mp := (m + 9) % 12                       // March = 0
	doy := (153*mp+2)/5 + d - 1              // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy   // [0, 146096]
	return era*146097 + doe - 719468 - 10957 // 719468: 0000-03-01 to 1970-01-01; 10957: 1970 to 2000
}

// TimestampFromTime converts a wall-clock time to kdb+ timestamp nanoseconds.
func TimestampFromTime(t time.Time) int64 { return t.UTC().Sub(KdbEpoch).Nanoseconds() }

// TimeFromTimestamp converts kdb+ timestamp nanoseconds back to wall-clock.
func TimeFromTimestamp(ns int64) time.Time { return KdbEpoch.Add(time.Duration(ns)) }

// TimeFromDate converts a kdb+ date count back to wall-clock midnight UTC.
func TimeFromDate(days int64) time.Time { return KdbEpoch.AddDate(0, 0, int(days)) }

// MkDate builds a date atom from calendar components.
func MkDate(y, m, d int) Temporal {
	t := time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
	return Temporal{T: KDate, V: DateFromTime(t)}
}

// MkTime builds a time atom (milliseconds since midnight).
func MkTime(h, m, s, ms int) Temporal {
	return Temporal{T: KTime, V: int64(h)*3600000 + int64(m)*60000 + int64(s)*1000 + int64(ms)}
}

// MkTimestamp builds a timestamp atom from calendar components.
func MkTimestamp(y, mo, d, h, mi, s int, ns int64) Temporal {
	t := time.Date(y, time.Month(mo), d, h, mi, s, int(ns), time.UTC)
	return Temporal{T: KTimestamp, V: TimestampFromTime(t)}
}

// MkMonth builds a month atom (months since 2000.01).
func MkMonth(y, m int) Temporal {
	return Temporal{T: KMonth, V: int64((y-2000)*12 + m - 1)}
}

// MkMinute builds a minute atom.
func MkMinute(h, m int) Temporal { return Temporal{T: KMinute, V: int64(h*60 + m)} }

// MkSecond builds a second atom.
func MkSecond(h, m, s int) Temporal { return Temporal{T: KSecond, V: int64(h*3600 + m*60 + s)} }

func formatTemporal(t Type, v int64) string {
	if v == NullLong {
		switch t {
		case KTimestamp:
			return "0Np"
		case KMonth:
			return "0Nm"
		case KDate:
			return "0Nd"
		case KTimespan:
			return "0Nn"
		case KMinute:
			return "0Nu"
		case KSecond:
			return "0Nv"
		case KTime:
			return "0Nt"
		}
	}
	switch t {
	case KDate:
		d := TimeFromDate(v)
		return fmt.Sprintf("%04d.%02d.%02d", d.Year(), d.Month(), d.Day())
	case KMonth:
		y := 2000 + int(v)/12
		m := int(v)%12 + 1
		if int(v) < 0 && int(v)%12 != 0 {
			y--
			m = int(v)%12 + 13
		}
		return fmt.Sprintf("%04d.%02dm", y, m)
	case KTime:
		neg := ""
		if v < 0 {
			neg, v = "-", -v
		}
		return fmt.Sprintf("%s%02d:%02d:%02d.%03d", neg, v/3600000, v/60000%60, v/1000%60, v%1000)
	case KSecond:
		neg := ""
		if v < 0 {
			neg, v = "-", -v
		}
		return fmt.Sprintf("%s%02d:%02d:%02d", neg, v/3600, v/60%60, v%60)
	case KMinute:
		neg := ""
		if v < 0 {
			neg, v = "-", -v
		}
		return fmt.Sprintf("%s%02d:%02d", neg, v/60, v%60)
	case KTimespan:
		neg := ""
		if v < 0 {
			neg, v = "-", -v
		}
		d := v / nsPerDay
		r := v % nsPerDay
		return fmt.Sprintf("%s%dD%02d:%02d:%02d.%09d", neg, d, r/3600000000000, r/60000000000%60, r/1000000000%60, r%1000000000)
	case KTimestamp:
		w := TimeFromTimestamp(v)
		return fmt.Sprintf("%04d.%02d.%02dD%02d:%02d:%02d.%09d",
			w.Year(), w.Month(), w.Day(), w.Hour(), w.Minute(), w.Second(), w.Nanosecond())
	default:
		return fmt.Sprintf("%d?%s", v, TypeName(t))
	}
}

func formatDatetime(v float64) string {
	if v != v { // NaN
		return "0Nz"
	}
	ns := int64(v * float64(nsPerDay))
	w := TimeFromTimestamp(ns)
	return fmt.Sprintf("%04d.%02d.%02dT%02d:%02d:%02d.%03d",
		w.Year(), w.Month(), w.Day(), w.Hour(), w.Minute(), w.Second(), w.Nanosecond()/1e6)
}
