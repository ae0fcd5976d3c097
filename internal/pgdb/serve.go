package pgdb

import (
	"context"
	"errors"
	"net"

	"hyperq/internal/pgdb/sqlparse"
	"hyperq/internal/wire/pgv3"
)

// AuthConfig selects the server's authentication method and credentials.
type AuthConfig struct {
	Method pgv3.AuthMethod
	// Users maps user names to plaintext passwords (the MD5 method hashes
	// these on demand).
	Users map[string]string
}

// Serve accepts PG v3 connections on l and executes queries against db,
// one session (with its own temp tables) per connection. It returns when
// the listener closes or ctx is canceled; ctx also bounds every statement
// executed by the served sessions, so canceling it aborts in-flight scans.
func Serve(ctx context.Context, l net.Listener, db *DB, auth AuthConfig) error {
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || ctx.Err() != nil {
				return nil
			}
			return err
		}
		go ServeConn(ctx, conn, db, auth)
	}
}

// ServeConn runs one PG v3 connection to its end: startup, authentication,
// then one session (with its own temp tables) executing the connection's
// statements under ctx. It closes conn before it returns. Serve runs it per
// accepted connection; an in-process gateway runs it over a socket pair.
func ServeConn(ctx context.Context, conn net.Conn, db *DB, auth AuthConfig) {
	sc := pgv3.NewServerConn(conn)
	defer sc.Close()
	if err := sc.Startup(); err != nil {
		return
	}
	verify := func(user, response string, salt [4]byte) bool {
		stored, ok := auth.Users[user]
		if !ok {
			return false
		}
		switch auth.Method {
		case pgv3.AuthMethodCleartext:
			return response == stored
		case pgv3.AuthMethodMD5:
			return response == pgv3.MD5Response(user, stored, salt)
		default:
			return true
		}
	}
	if err := sc.Authenticate(auth.Method, verify); err != nil {
		return
	}
	session := db.NewSession()
	defer session.Close()
	sc.Serve(&wireSession{ctx: ctx, sc: sc, session: session})
}

// wireSession executes one connection's statements for pgv3's message loop
// (pgv3.Handler).
type wireSession struct {
	ctx     context.Context
	sc      *pgv3.ServerConn
	session *Session
}

// Query runs a simple-query script; the first failure ends it.
func (w *wireSession) Query(sql string) ([]pgv3.Result, error) {
	results, err := w.session.execScript(w.ctx, sql)
	out := make([]pgv3.Result, len(results))
	for i, res := range results {
		out[i] = wireResult{w.sc, res}
	}
	return out, serverError(err)
}

// Parse prepares the unnamed statement: one statement, or none for the
// empty query.
func (w *wireSession) Parse(sql string) (pgv3.Statement, error) {
	stmts, err := sqlparse.ParseScript(sql)
	switch {
	case err != nil:
		return nil, serverError(errf("42601", "%v", err))
	case len(stmts) > 1:
		return nil, serverError(errf("42601", "cannot insert multiple commands into a prepared statement"))
	}
	p := &prepared{w: w}
	if len(stmts) == 1 {
		p.stmt = stmts[0]
	}
	return p, nil
}

// prepared is a parsed unnamed statement; stmt is nil for the empty query.
type prepared struct {
	w    *wireSession
	stmt sqlparse.Stmt
}

// Run implements pgv3.Statement.
func (p *prepared) Run() (pgv3.Result, error) {
	if p.stmt == nil {
		return nil, nil
	}
	res, err := p.w.session.execStmtContext(p.w.ctx, p.stmt)
	if err != nil {
		return nil, serverError(err)
	}
	return wireResult{p.w.sc, res}, nil
}

// serverError maps an execution error onto the ErrorResponse reporting it;
// an error without a SQLSTATE of its own reports XX000.
func serverError(err error) error {
	if err == nil {
		return nil
	}
	se := &pgv3.ServerError{Severity: "ERROR", Code: "XX000", Message: err.Error()}
	var pe *Error
	if errors.As(err, &pe) {
		se.Code = pe.Code
		se.Message = pe.Msg
	}
	return se
}

// wireResult writes one statement's result to a connection (pgv3.Result).
type wireResult struct {
	sc  *pgv3.ServerConn
	res *Result
}

// Columns implements pgv3.Result.
func (r wireResult) Columns() []pgv3.ColDesc {
	if len(r.res.Cols) == 0 {
		return nil
	}
	cols := make([]pgv3.ColDesc, len(r.res.Cols))
	for i, c := range r.res.Cols {
		cols[i] = pgv3.ColDesc{Name: c.Name, TypeOID: pgv3.OIDForType(c.Type)}
	}
	return cols
}

// WriteRows implements pgv3.Result. A SELECT's result is a column store
// that shares no table's vectors (execStmt), read after the statement lock is
// released. Each segment picks one cell writer per column (pickWriter), and
// cells render typed from the vectors, text or binary per column, straight
// into the connection's output buffer, so a row costs no allocation however
// wide it is. A cell that has no binary form fails the statement with the
// rows before it sent.
func (r wireResult) WriteRows(cols []pgv3.ColDesc) error {
	sc, st := r.sc, r.res.store
	ws := make([]cellWriter, len(cols))
	for si := range st.slots {
		seg := st.seg(si)
		for j, col := range cols {
			ws[j] = pickWriter(seg.vecs[j].kind, col)
		}
		for i := 0; i < seg.n; i++ {
			b := sc.BeginDataRow(len(cols))
			for j, w := range ws {
				v := &seg.vecs[j]
				if v.isNull(i) {
					b = pgv3.NullCell(b)
					continue
				}
				var err error
				switch w {
				case writeInt8:
					b = appendInt8(append(b, 0, 0, 0, 8), v.ints[i])
				case writeFloat8:
					b = appendFloat8(append(b, 0, 0, 0, 8), v.floats[i])
				case writeDict:
					b = pgv3.AppendCell(b, v.dict[v.codes[i]])
				case writeInt4:
					b, err = appendInt4(append(b, 0, 0, 0, 4), v.ints[i], cols[j].TypeOID)
				case writeTime:
					b, err = appendTime(append(b, 0, 0, 0, 8), v.ints[i])
				default:
					var at int
					b, at = pgv3.OpenCell(b)
					b, err = appendVecCell(b, v, i, cols[j], r.res.Cols[j].Type)
					pgv3.CloseCell(b, at)
				}
				if err != nil {
					sc.AbortDataRow()
					return serverError(err)
				}
			}
			if err := sc.EndDataRow(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// cellWriter is how WriteRows renders the non-NULL cells of one column of
// one segment.
type cellWriter uint8

const (
	// writeCell renders with appendVecCell, then back-patches the cell's
	// length: boxed values, text numbers and temporals, and the binaries
	// that convert a value or are a smallint's.
	writeCell cellWriter = iota
	// writeInt8 appends an integer vector's bigint binary form.
	writeInt8
	// writeFloat8 appends a float vector's double precision binary form.
	writeFloat8
	// writeDict appends a string vector's text from its dictionary.
	writeDict
	// writeInt4 appends an integer vector's integer or date binary form,
	// range-checked.
	writeInt4
	// writeTime appends an integer vector's time binary form, microseconds,
	// range-checked.
	writeTime
)

// pickWriter picks the cell writer for a vector of kind k in column col:
// the fixed-width binaries of a vector of the column's own kind and
// dictionary strings, whose length is known before their bytes, append
// both directly.
func pickWriter(k vecKind, col pgv3.ColDesc) cellWriter {
	switch text := col.Format == pgv3.FormatText; {
	case k == vkInt && !text && col.TypeOID == pgv3.OidInt8:
		return writeInt8
	case k == vkFloat && !text && col.TypeOID == pgv3.OidFloat8:
		return writeFloat8
	case k == vkStr && text:
		return writeDict
	case k == vkInt && !text && (col.TypeOID == pgv3.OidInt4 || col.TypeOID == pgv3.OidDate):
		return writeInt4
	case k == vkInt && !text && col.TypeOID == pgv3.OidTime:
		return writeTime
	}
	return writeCell
}

// Tag implements pgv3.Result.
func (r wireResult) Tag() string { return r.res.Tag }

// appendVecCell appends the non-NULL cell i of v in col's format, for the
// cells pickWriter leaves to writeCell.
func appendVecCell(dst []byte, v *colVec, i int, col pgv3.ColDesc, typ string) ([]byte, error) {
	switch text := col.Format == pgv3.FormatText; {
	case v.kind == vkInt && text:
		return appendIntText(dst, v.ints[i], typ), nil
	case v.kind == vkInt:
		return appendBinaryInt(dst, v.ints[i], col.TypeOID, typ)
	case v.kind == vkFloat && text:
		return appendFloatText(dst, v.floats[i]), nil
	case text:
		return AppendValue(dst, v.get(i), typ), nil
	}
	return appendBinary(dst, v.get(i), col.TypeOID, typ)
}
