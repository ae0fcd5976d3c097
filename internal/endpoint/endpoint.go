// Package endpoint is Hyper-Q's kdb+-specific plugin (paper §3.1, Figure 1):
// it listens on the port the original kdb+ server used, performs the QIPC
// handshake, parses incoming messages, extracts the query text and passes it
// on for algebrization; responses flow back as QIPC messages. Q applications
// run unchanged while their network packets are routed here instead of kdb+.
//
// The endpoint is the origin of the request life cycle: every query runs
// under a context derived from its client connection — canceled when the
// client disconnects mid-query or when the server drains — and bounded by
// the configured per-request timeout. The context flows through the cross
// compiler into binding, pooling and backend I/O; context failures come back
// as typed errors and are rendered to the client as kdb+-style terse errors
// ('timeout, 'canceled).
package endpoint

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/qipc"
)

// Handler processes one extracted Q query and returns its result value. The
// context is the per-request context: it is canceled when the client
// disconnects or the server drains, and carries the request deadline.
// The cross compiler (internal/xc) is the production handler.
type Handler interface {
	HandleQuery(ctx context.Context, q string) (qval.Value, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, q string) (qval.Value, error)

// HandleQuery implements Handler.
func (f HandlerFunc) HandleQuery(ctx context.Context, q string) (qval.Value, error) {
	return f(ctx, q)
}

// Config configures the endpoint listener.
type Config struct {
	// Auth validates handshake credentials; nil accepts everyone (kdb+'s
	// historical default, paper §2.2).
	Auth func(user, password string) bool
	// NewHandler builds a per-connection handler (one Hyper-Q session per
	// client connection).
	NewHandler func(creds *qipc.Credentials) (Handler, func(), error)
	// RequestTimeout bounds each query's end-to-end life cycle (0 disables);
	// expiry surfaces to the client as 'timeout.
	RequestTimeout time.Duration
	// DrainTimeout is the grace window after shutdown begins: new
	// connections are refused immediately, in-flight requests may finish
	// within the window, then their contexts are hard-canceled and the
	// connections closed (default 5s).
	DrainTimeout time.Duration
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
	// decode, when set, replaces qipc.ReadMessage as the inbound decoder
	// (tests make it panic).
	decode func(io.Reader) (*qipc.Message, error)
}

// Serve accepts QIPC connections until the listener closes or ctx is
// canceled. Cancellation triggers a graceful drain: the listener closes at
// once, in-flight requests get DrainTimeout to finish, stragglers are
// canceled and their connections closed. Serve returns after every
// connection goroutine has exited.
func Serve(ctx context.Context, l net.Listener, cfg Config) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	// reqParent is the parent of every per-request context. It deliberately
	// detaches from ctx's cancellation: shutdown must not kill in-flight
	// requests until the drain window lapses.
	reqParent, hardCancel := context.WithCancel(context.WithoutCancel(ctx))
	defer hardCancel()
	stopAccept := context.AfterFunc(ctx, func() { l.Close() })
	defer stopAccept()
	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break // shutdown requested: drain below
			}
			wg.Wait() // listener closed externally: legacy exit, no grace window
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if ctx.Err() != nil {
			// the connection raced the listener's close: refuse it too
			conn.Close()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveConn(reqParent, conn, cfg, logf)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		logf("endpoint: drain window lapsed; canceling in-flight requests")
		hardCancel()
	}
	<-done
	return nil
}

func serveConn(ctx context.Context, conn net.Conn, cfg Config, logf func(string, ...any)) {
	defer conn.Close()
	// connCtx is the connection's life: canceled when the client disconnects
	// (the reader goroutine sees EOF) or when the server hard-cancels.
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// a hard-cancel must also unblock a reader waiting in ReadMessage
	stopClose := context.AfterFunc(connCtx, func() { conn.Close() })
	defer stopClose()

	br := bufio.NewReader(conn)
	creds, err := qipc.ServerHandshake(br, conn, cfg.Auth)
	if err != nil {
		// kdb+ closes the connection without replying on bad credentials
		logf("endpoint: handshake failed: %v", err)
		return
	}
	// kdb+'s rule: never compress for a peer on the same host
	write := qipc.WriteMessage
	if qipc.LocalPeer(conn.RemoteAddr()) {
		write = qipc.WriteLocalMessage
	}
	reply := func(v qval.Value) error { return write(conn, qipc.Response, v) }
	handler, cleanup, err := cfg.NewHandler(creds)
	if err != nil {
		logf("endpoint: no handler: %v", err)
		return
	}
	if cleanup != nil {
		defer cleanup()
	}

	// The reader goroutine owns the inbound stream. The channel is
	// unbuffered, so while a query is being handled the reader sits blocked
	// in ReadMessage on the *next* message — which is exactly where it
	// observes a mid-query client disconnect and cancels the connection
	// context, aborting the in-flight query.
	// A decoder panic comes through as an inbound item with fault set: the
	// loop below, the connection's only writer, answers it and closes the
	// connection, so the reader leaves it open.
	msgs := make(chan inbound)
	go func() {
		defer close(msgs)
		for {
			msg, err := readMessage(cfg.decode, br)
			var fault *panicError
			if errors.As(err, &fault) {
				logf("endpoint: reading a message panicked: %v\n%s", fault.val, fault.stack)
			} else if err != nil {
				cancel()
				return // disconnect (or conn closed by hard-cancel)
			}
			select {
			case msgs <- inbound{msg, fault}:
			case <-connCtx.Done():
				return
			}
			if fault != nil {
				return
			}
		}
	}()

	for {
		var in inbound
		var ok bool
		select {
		case in, ok = <-msgs:
			if !ok {
				return // client gone
			}
		case <-connCtx.Done():
			return
		}
		if in.fault != nil {
			respondErr(reply, in.fault.Error())
			return
		}
		msg := in.msg
		qtext, extracted := extractQuery(msg.Value)
		if !extracted {
			if msg.Type == qipc.Sync {
				respondErr(reply, "type")
			}
			continue
		}
		result, err := handleOne(connCtx, handler, cfg.RequestTimeout, qtext)
		if fault := (*panicError)(nil); errors.As(err, &fault) {
			// the handler's session may be half-updated: answer, then drop
			// the connection (and the session with it)
			logf("endpoint: query %q panicked: %v\n%s", qtext, fault.val, fault.stack)
			if msg.Type == qipc.Sync {
				respondErr(reply, fault.Error())
			}
			return
		}
		if msg.Type != qipc.Sync {
			// async: execute, no response — but a failure would otherwise
			// vanish silently; surface the dropped work in the log
			if err != nil {
				logf("endpoint: async query %q failed (no response sent): %v", qtext, err)
			}
			continue
		}
		if err != nil {
			if connCtx.Err() != nil {
				return // client disconnected or server hard-canceled: no one to answer
			}
			respondErr(reply, renderError(err))
			continue
		}
		if err := reply(result); err != nil {
			logf("endpoint: write response: %v", err)
			return
		}
	}
}

// inbound is one item of a connection's inbound stream: a message, or the
// panic that reading one raised.
type inbound struct {
	msg   *qipc.Message
	fault *panicError
}

// panicError is a panic recovered while serving one connection, with the
// stack it was raised on. It fails the request that raised it and closes
// that connection; hyperq and its other connections go on.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("internal error: %v", e.val) }

// recoverInto turns a panic into *err as a *panicError; it must be deferred
// directly.
func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = &panicError{val: r, stack: debug.Stack()}
	}
}

// readMessage runs decode (nil: qipc.ReadMessage) with a panic recovered
// into the error.
func readMessage(decode func(io.Reader) (*qipc.Message, error), br *bufio.Reader) (msg *qipc.Message, err error) {
	defer recoverInto(&err)
	if decode == nil {
		decode = qipc.ReadMessage
	}
	return decode(br)
}

// handleOne runs a single query under its per-request context; a panic in
// the handler comes back as a *panicError.
func handleOne(connCtx context.Context, h Handler, timeout time.Duration, qtext string) (_ qval.Value, err error) {
	defer recoverInto(&err)
	ctx := connCtx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(connCtx, timeout)
		defer cancel()
	}
	return h.HandleQuery(ctx, qtext)
}

// renderError maps an error to the terse kdb+-style message sent to the
// client; context failures get stable names a Q client can dispatch on.
func renderError(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return err.Error()
}

// extractQuery pulls the query text out of an incoming message: a char
// vector is raw query text (the common case, §4.2).
func extractQuery(v qval.Value) (string, bool) {
	switch x := v.(type) {
	case qval.CharVec:
		return string(x), true
	case qval.Symbol:
		return string(x), true
	default:
		return "", false
	}
}

func respondErr(reply func(qval.Value) error, msg string) {
	for len(msg) > 0 && msg[0] == '\'' {
		msg = msg[1:]
	}
	if err := reply(&qval.QError{Msg: msg}); err != nil {
		log.Printf("endpoint: failed to send error: %v", err)
	}
}
