package pgdb

import (
	"context"
	"errors"
	"net"

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
		go handleConn(ctx, conn, db, auth)
	}
}

func handleConn(ctx context.Context, conn net.Conn, db *DB, auth AuthConfig) {
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
	for {
		sql, err := sc.ReadQuery()
		if err != nil {
			return // EOF on Terminate or broken connection
		}
		results, err := session.ExecScriptContext(ctx, sql)
		for _, res := range results {
			if sendErr := sendResult(sc, res); sendErr != nil {
				return
			}
		}
		if err != nil {
			var pe *Error
			se := &pgv3.ServerError{Severity: "ERROR", Code: "XX000", Message: err.Error()}
			if errors.As(err, &pe) {
				se.Code = pe.Code
				se.Message = pe.Msg
			}
			if err := sc.SendError(se); err != nil {
				return
			}
		}
		if err := sc.SendReadyForQuery(); err != nil {
			return
		}
		if err := sc.Flush(); err != nil {
			return
		}
	}
}

// sendResult writes one statement's result. Cells render with AppendValue
// straight into the connection's output buffer, so a row costs no
// allocation however wide it is.
func sendResult(sc *pgv3.ServerConn, res *Result) error {
	if len(res.Cols) > 0 {
		cols := make([]pgv3.ColDesc, len(res.Cols))
		for i, c := range res.Cols {
			cols[i] = pgv3.ColDesc{Name: c.Name, TypeOID: pgv3.OIDForType(c.Type)}
		}
		if err := sc.SendRowDescription(cols); err != nil {
			return err
		}
		for _, row := range res.Rows {
			sc.BeginDataRow(len(row))
			for j, v := range row {
				if v == nil {
					sc.NullCell()
					continue
				}
				sc.EndCell(AppendValue(sc.BeginCell(), v, res.Cols[j].Type))
			}
			if err := sc.EndDataRow(); err != nil {
				return err
			}
		}
	}
	return sc.SendCommandComplete(res.Tag)
}
