package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hyperq/internal/colbuf"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xtra"
)

// ResultToQ pivots a row-oriented backend result into a column-oriented Q
// table (paper §4.2: Hyper-Q buffers the streamed rows, then extracts
// columns to form the single QIPC message). The implicit order column is
// stripped — it is translation plumbing, not application data. Sessions
// build tables with TableSink instead; this independent text parser stays as
// the oracle gateway's TestBinaryCellsMatchText holds binary cells to.
func ResultToQ(res *BackendResult) (*qval.Table, error) {
	var cols []string
	var keep []int
	for j, c := range res.Cols {
		if c.Name == xtra.OrdCol || c.Name == "hq_rn" {
			continue
		}
		cols = append(cols, c.Name)
		keep = append(keep, j)
	}
	data := make([]qval.Value, len(keep))
	for k, j := range keep {
		col, err := columnToQ(res, j)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", res.Cols[j].Name, err)
		}
		data[k] = col
	}
	return qval.NewTable(cols, data), nil
}

func columnToQ(res *BackendResult, j int) (qval.Value, error) {
	qt := xtra.QTypeForSQL(res.Cols[j].SQLType)
	atoms := make([]qval.Value, len(res.Rows))
	for i, row := range res.Rows {
		f := row[j]
		if f.Null {
			atoms[i] = qval.Null(qt)
			continue
		}
		v, err := parseQAtom(f.Text, qt)
		if err != nil {
			return nil, err
		}
		atoms[i] = v
	}
	if len(atoms) == 0 {
		return qval.EmptyVec(qt), nil
	}
	return qval.FromAtoms(atoms), nil
}

// parseQAtom converts PostgreSQL text output into a Q atom of the mapped
// type.
func parseQAtom(text string, qt qval.Type) (qval.Value, error) {
	switch qt {
	case qval.KBool:
		return qval.Bool(text == "t" || text == "true" || text == "1"), nil
	case qval.KShort:
		n, err := strconv.ParseInt(text, 10, 16)
		if err != nil {
			return nil, err
		}
		return qval.Short(int16(n)), nil
	case qval.KInt:
		n, err := strconv.ParseInt(text, 10, 32)
		if err != nil {
			return nil, err
		}
		return qval.Int(int32(n)), nil
	case qval.KLong:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, err
		}
		return qval.Long(n), nil
	case qval.KReal:
		f, err := strconv.ParseFloat(text, 32)
		if err != nil {
			return nil, err
		}
		return qval.Real(float32(f)), nil
	case qval.KFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, err
		}
		return qval.Float(f), nil
	case qval.KDate:
		// colbuf shares these temporal parsers with the streaming pipeline,
		// so both result paths decode identically by construction (and the
		// time.Parse allocation churn is gone from this path too)
		d, err := colbuf.ParseDateText(text)
		if err != nil {
			return nil, err
		}
		return qval.Temporal{T: qval.KDate, V: d}, nil
	case qval.KTime:
		ms, err := colbuf.ParseTimeText(text)
		if err != nil {
			return nil, err
		}
		return qval.Temporal{T: qval.KTime, V: ms}, nil
	case qval.KTimestamp:
		ns, err := colbuf.ParseTimestampText(text)
		if err != nil {
			return nil, err
		}
		return qval.Temporal{T: qval.KTimestamp, V: ns}, nil
	default:
		return qval.Symbol(text), nil
	}
}

// AppendQAtomSQLText renders a Q atom as PostgreSQL text input for its
// mapped SQL type, used when loading Q tables into the backend. The
// rendering appends to dst, so bulk loaders avoid a string allocation per
// cell.
func AppendQAtomSQLText(dst []byte, v qval.Value) (text []byte, null bool) {
	if qval.IsNull(v) {
		return dst, true
	}
	switch x := v.(type) {
	case qval.Bool:
		if x {
			return append(dst, "true"...), false
		}
		return append(dst, "false"...), false
	case qval.Real:
		return appendFloatText(dst, float64(x)), false
	case qval.Float:
		return appendFloatText(dst, float64(x)), false
	case qval.Symbol:
		return append(dst, x...), false
	case qval.CharVec:
		return append(dst, x...), false
	case qval.Temporal:
		switch x.T {
		case qval.KDate:
			return qval.TimeFromDate(x.V).AppendFormat(dst, "2006-01-02"), false
		case qval.KTime:
			ms := x.V
			return fmt.Appendf(dst, "%02d:%02d:%02d.%03d", ms/3600000, ms/60000%60, ms/1000%60, ms%1000), false
		case qval.KTimestamp:
			return qval.TimeFromTimestamp(x.V).AppendFormat(dst, "2006-01-02 15:04:05.999999999"), false
		default:
			return fmt.Appendf(dst, "%v", x.V), false
		}
	default:
		s := v.String()
		s = strings.TrimSuffix(s, "f")
		s = strings.TrimSuffix(s, "i")
		s = strings.TrimSuffix(s, "h")
		s = strings.TrimSuffix(s, "e")
		return append(dst, s...), false
	}
}

// appendFloatText renders a float magnitude as PostgreSQL text input; Q's
// ±0w spellings are not valid SQL float input, PostgreSQL wants "Infinity".
func appendFloatText(dst []byte, f float64) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(dst, "Infinity"...)
	case math.IsInf(f, -1):
		return append(dst, "-Infinity"...)
	default:
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
}
