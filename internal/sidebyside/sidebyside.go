// Package sidebyside implements the side-by-side testing framework the
// paper built during the customer engagement (§5): every feature is
// validated by running the same Q query against the original system (the
// kdb+ substrate, package interp) and through Hyper-Q against the SQL
// backend, then comparing results. The framework is used for internal
// feature testing and doubles as a correctness harness in staging.
package sidebyside

import (
	"context"
	"fmt"
	"math"
	"strings"

	"hyperq/internal/core"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
)

// Framework pairs a kdb+ substrate with a Hyper-Q session over a backend.
type Framework struct {
	Kdb     *interp.Interp
	Session *core.Session
	backend core.Backend
	// FloatTol is the relative tolerance for float comparison (the two
	// engines may legitimately differ in summation order).
	FloatTol float64
}

// New builds a framework over an existing interpreter and session.
func New(kdb *interp.Interp, session *core.Session, backend core.Backend) *Framework {
	return &Framework{Kdb: kdb, Session: session, backend: backend, FloatTol: 1e-9}
}

// Close ends the Hyper-Q session and its backend connection.
func (f *Framework) Close() error { return f.Session.Close() }

// LoadTable installs a table on both sides.
func (f *Framework) LoadTable(ctx context.Context, name string, t *qval.Table) error {
	f.Kdb.SetGlobal(name, t)
	return core.LoadQTable(ctx, f.backend, name, t)
}

// LoadTableStaged installs a table like LoadTable, but loads the primary
// backend in two halves with probe (a SQL statement against the primary
// backend) executed in between. Index-enabled fuzz runs use it to build a
// secondary index over the first half of the data and then dirty it with the
// second half's inserts, so every generated query runs against an
// incrementally-maintained index rather than a freshly built one. The
// implicit-order values are global row indexes either way, so the loaded
// table is identical to a LoadTable result.
func (f *Framework) LoadTableStaged(ctx context.Context, name string, t *qval.Table, probe string) error {
	f.Kdb.SetGlobal(name, t)
	if err := core.CreateQTable(ctx, f.backend, name, t); err != nil {
		return err
	}
	half := t.Len() / 2
	if err := core.LoadQTableRows(ctx, f.backend, name, t, 0, half); err != nil {
		return err
	}
	if probe != "" {
		if _, err := f.backend.Exec(ctx, probe); err != nil {
			return err
		}
	}
	return core.LoadQTableRows(ctx, f.backend, name, t, half, t.Len())
}

// Report is the outcome of one comparison.
type Report struct {
	Query string
	Match bool
	Diffs []string
	// KdbErr and HyperQErr hold each engine's error class when the query
	// failed on that side (ClassNone when it succeeded).
	KdbErr    ErrClass
	HyperQErr ErrClass
	// KdbResult and HyperQResult hold the canonicalized tables (nil for
	// non-tabular results).
	KdbResult    *qval.Table
	HyperQResult *qval.Table
}

func (r *Report) String() string {
	if r.Match {
		return "MATCH " + r.Query
	}
	return "MISMATCH " + r.Query + "\n  " + strings.Join(r.Diffs, "\n  ")
}

// Compare runs q on both sides and diffs the canonicalized results. When
// Hyper-Q answers, it runs q a second time on the same backend connection
// and diffs that result too: over PG v3 the rerun of a SQL text gets its
// numeric, boolean, date and time columns as binary cells, so both cell
// formats are held to the interpreter. A divergence on the rerun only ends
// its Diffs with rerunDiff.
func (f *Framework) Compare(ctx context.Context, q string) (*Report, error) {
	kv, kerr := f.Kdb.Eval(q)
	rep := f.compare(ctx, q, kv, kerr)
	if !rep.Match || kerr != nil {
		return rep, nil
	}
	if again := f.compare(ctx, q, kv, kerr); !again.Match {
		again.Diffs = append(again.Diffs, rerunDiff)
		return again, nil
	}
	return rep, nil
}

// rerunDiff ends the Diffs of a report whose query matched on its first run
// and diverged on its second.
const rerunDiff = "(on the rerun, with binary cells)"

// compare runs q through Hyper-Q and diffs it against the kdb+ side's
// outcome.
func (f *Framework) compare(ctx context.Context, q string, kv qval.Value, kerr error) *Report {
	rep := &Report{Query: q}
	hv, _, herr := f.Session.Run(ctx, q)
	if kerr != nil || herr != nil {
		rep.KdbErr, rep.HyperQErr = Classify(kerr), Classify(herr)
		if kerr != nil && herr != nil {
			// both sides rejecting the query counts as agreement only when
			// they rejected it for the same kind of reason; a 'nyi on one
			// side against a 'type on the other is a divergence
			if rep.KdbErr == rep.HyperQErr {
				rep.Match = true
				rep.Diffs = append(rep.Diffs, fmt.Sprintf("both error (%s): kdb=%v hyperq=%v", rep.KdbErr, kerr, herr))
				return rep
			}
			rep.Diffs = append(rep.Diffs, fmt.Sprintf("error class divergence: kdb=%s(%v) hyperq=%s(%v)",
				rep.KdbErr, kerr, rep.HyperQErr, herr))
			return rep
		}
		rep.Diffs = append(rep.Diffs, fmt.Sprintf("error divergence: kdb=%v hyperq=%v", kerr, herr))
		return rep
	}
	kt, _ := canonicalize(kv)
	ht, _ := canonicalize(hv)
	rep.KdbResult, rep.HyperQResult = kt, ht
	rep.Diffs = Diff(kv, hv, f.FloatTol)
	rep.Match = len(rep.Diffs) == 0
	return rep
}

// Diff compares a kdb-side and a Hyper-Q-side result, returning human-
// readable differences (empty means match). Tabular results are
// canonicalized (keyed tables flatten) and cells compared with the given
// relative float tolerance. Exported for harnesses that obtain the two
// values themselves — e.g. the concurrent serving test, which receives the
// Hyper-Q result over the QIPC wire.
func Diff(kdb, hyperq qval.Value, floatTol float64) []string {
	kt, kok := canonicalize(kdb)
	ht, hok := canonicalize(hyperq)
	if !kok || !hok {
		return diffValues(kdb, hyperq, floatTol)
	}
	return diffTables(kt, ht, floatTol)
}

// diffValues compares two non-tabular results: atoms via cellsEqual (so the
// float tolerance and infinity rules apply) and vectors elementwise.
func diffValues(kdb, hyperq qval.Value, floatTol float64) []string {
	kn, hn := kdb.Len(), hyperq.Len()
	if kn < 0 || hn < 0 {
		// at least one atom: shape must agree, then compare as one cell
		if kn != hn {
			return []string{fmt.Sprintf("shape mismatch: kdb=%v hyperq=%v", kdb, hyperq)}
		}
		if cellsEqual(kdb, hyperq, floatTol) {
			return nil
		}
		return []string{fmt.Sprintf("scalar mismatch: kdb=%v hyperq=%v", kdb, hyperq)}
	}
	if kn != hn {
		return []string{fmt.Sprintf("length mismatch: kdb=%d hyperq=%d", kn, hn)}
	}
	var diffs []string
	for i := 0; i < kn; i++ {
		av, bv := qval.Index(kdb, i), qval.Index(hyperq, i)
		if cellsEqual(av, bv, floatTol) {
			continue
		}
		diffs = append(diffs, fmt.Sprintf("element %d: kdb=%v hyperq=%v", i, av, bv))
		if len(diffs) > 10 {
			diffs = append(diffs, "... (truncated)")
			break
		}
	}
	return diffs
}

// MustMatch is a convenience for tests: it returns an error on mismatch.
func (f *Framework) MustMatch(ctx context.Context, q string) error {
	rep, err := f.Compare(ctx, q)
	if err != nil {
		return err
	}
	if !rep.Match {
		return fmt.Errorf("side-by-side mismatch:\n%s", rep)
	}
	return nil
}

// canonicalize turns a result into a plain table: keyed tables are
// flattened (a select-by returns a keyed table in q but a plain table
// through Hyper-Q).
func canonicalize(v qval.Value) (*qval.Table, bool) {
	switch x := v.(type) {
	case *qval.Table:
		return x, true
	case *qval.Dict:
		if t, ok := qval.Unkey(x); ok {
			return t, true
		}
		return nil, false
	default:
		return nil, false
	}
}

func diffTables(a, b *qval.Table, floatTol float64) []string {
	var diffs []string
	if a.NumCols() != b.NumCols() {
		diffs = append(diffs, fmt.Sprintf("column count: kdb=%d hyperq=%d (kdb cols %v, hyperq cols %v)",
			a.NumCols(), b.NumCols(), a.Cols, b.Cols))
		return diffs
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			diffs = append(diffs, fmt.Sprintf("column %d name: kdb=%q hyperq=%q", i, a.Cols[i], b.Cols[i]))
		}
	}
	if len(diffs) > 0 {
		return diffs
	}
	if a.Len() != b.Len() {
		diffs = append(diffs, fmt.Sprintf("row count: kdb=%d hyperq=%d", a.Len(), b.Len()))
		return diffs
	}
	n := a.Len()
	for c := range a.Cols {
		ac, bc := a.Data[c], b.Data[c]
		for i := 0; i < n; i++ {
			av, bv := qval.Index(ac, i), qval.Index(bc, i)
			if cellsEqual(av, bv, floatTol) {
				continue
			}
			diffs = append(diffs, fmt.Sprintf("cell [%d,%s]: kdb=%v hyperq=%v", i, a.Cols[c], av, bv))
			if len(diffs) > 10 {
				diffs = append(diffs, "... (truncated)")
				return diffs
			}
		}
	}
	return diffs
}

func cellsEqual(a, b qval.Value, floatTol float64) bool {
	if qval.IsNull(a) && qval.IsNull(b) {
		return true
	}
	af, aok := qval.AsFloat(a)
	bf, bok := qval.AsFloat(b)
	if aok && bok {
		// infinities compare exactly: the relative-tolerance formula below
		// would call 0w equal to any finite value (diff <= tol*Inf)
		if math.IsInf(af, 0) || math.IsInf(bf, 0) {
			return af == bf
		}
		if math.IsNaN(af) || math.IsNaN(bf) {
			return math.IsNaN(af) && math.IsNaN(bf)
		}
		if af == bf {
			return true
		}
		diff := math.Abs(af - bf)
		scale := math.Max(math.Abs(af), math.Abs(bf))
		return diff <= floatTol*math.Max(scale, 1)
	}
	return qval.EqualValues(a, b)
}
