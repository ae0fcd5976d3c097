package xc

import (
	"context"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/qlang/qval"
)

// PT states (protocol translation life cycle, Figure 4).
const (
	PTIdle        State = "pt/idle"
	PTTranslating State = "pt/translating"
	PTExecuting   State = "pt/executing"
	PTPivoting    State = "pt/pivoting"
	PTDone        State = "pt/done"
)

// QT states (query translation life cycle).
const (
	QTIdle        State = "qt/idle"
	QTTranslating State = "qt/translating"
	QTDone        State = "qt/done"
)

// Events exchanged between the translators.
const (
	EvQuery      EventKind = "q-query"    // Q text extracted from a QIPC message
	EvTranslated EventKind = "sql-ready"  // QT produced SQL / executed the pipeline
	EvExecuted   EventKind = "rows-ready" // backend rows arrived
	EvPivoted    EventKind = "qipc-ready" // result pivoted to column format
)

// CrossCompiler wires a Protocol Translator FSM and a Query Translator FSM
// around a platform session, exactly the PT/QT split of §3.4: PT owns the
// protocol conversation (message in, message out, result pivot), QT owns
// the language translation (algebrize → transform → serialize → execute).
//
// The interface between PT and QT is "as simple as sending out a Q query
// from PT, and receiving back an equivalent SQL query from QT".
type CrossCompiler struct {
	session *core.Session
	pt      *FSM
	qt      *FSM

	// per-request scratch, written by FSM actions. ctx is the request's
	// context, installed by HandleQuery for the FSM actions to pick up —
	// the FSM event payloads stay protocol data, per the paper's PT/QT
	// interface ("sending out a Q query ... receiving back SQL").
	ctx       context.Context
	result    qval.Value
	stats     *core.RunStats
	pivotTime time.Duration
}

// New builds a cross compiler over a platform session.
func New(session *core.Session) *CrossCompiler {
	x := &CrossCompiler{session: session}
	x.qt = NewFSM("QT", QTIdle)
	x.pt = NewFSM("PT", PTIdle)

	// QT: receives the Q text, drives the translation pipeline, hands the
	// (executed) result back to PT.
	x.qt.On(QTIdle, EvQuery, QTTranslating, func(payload any) ([]Event, error) {
		qtext := payload.(string)
		v, stats, err := x.session.Run(x.ctx, qtext)
		if err != nil {
			return nil, err
		}
		x.result = v
		x.stats = stats
		x.qt.Send(Event{Kind: EvTranslated})
		return nil, nil
	})
	x.qt.On(QTTranslating, EvTranslated, QTDone, func(any) ([]Event, error) {
		// callback fires when backend results are ready for translation
		x.pt.Send(Event{Kind: EvExecuted, Payload: x.result})
		return nil, nil
	})

	// PT: extracts the query, delegates to QT, pivots the result set into
	// QIPC's column orientation (§4.2; the pivot itself happens inside the
	// session's result conversion — PT buffers and finalizes here).
	x.pt.On(PTIdle, EvQuery, PTTranslating, func(payload any) ([]Event, error) {
		x.qt.Send(Event{Kind: EvQuery, Payload: payload})
		if err := x.qt.Drain(); err != nil {
			return nil, err
		}
		return nil, nil
	})
	x.pt.On(PTTranslating, EvExecuted, PTPivoting, func(payload any) ([]Event, error) {
		t0 := time.Now()
		// the value is already column-oriented (pivot happened during
		// result conversion); measure the finalize step
		x.result = payload.(qval.Value)
		x.pivotTime = time.Since(t0)
		x.pt.Send(Event{Kind: EvPivoted})
		return nil, nil
	})
	x.pt.On(PTPivoting, EvPivoted, PTDone, nil)
	return x
}

// HandleQuery drives one complete query life cycle through both FSMs and
// returns the Q-side result. It is the endpoint plugin's handler; ctx is the
// per-request context (deadline, client-disconnect cancellation) and bounds
// the whole translate-execute-pivot cycle.
func (x *CrossCompiler) HandleQuery(ctx context.Context, qtext string) (qval.Value, *core.RunStats, error) {
	x.pt.Reset(PTIdle)
	x.qt.Reset(QTIdle)
	x.ctx, x.result, x.stats = ctx, nil, nil
	x.pt.Send(Event{Kind: EvQuery, Payload: qtext})
	if err := x.pt.Drain(); err != nil {
		return nil, x.stats, err
	}
	if err := x.qt.Err(); err != nil {
		return nil, x.stats, err
	}
	if x.pt.State() != PTDone {
		return nil, x.stats, errState(x.pt)
	}
	return x.result, x.stats, nil
}

// PTTrace exposes the protocol translator's transition log.
func (x *CrossCompiler) PTTrace() []string { return x.pt.Trace() }

// Session exposes the underlying platform session.
func (x *CrossCompiler) Session() *core.Session { return x.session }

func errState(f *FSM) error {
	if err := f.Err(); err != nil {
		return err
	}
	return &stateError{name: f.Name, state: f.State()}
}

type stateError struct {
	name  string
	state State
}

func (e *stateError) Error() string {
	return "xc: " + e.name + " stalled in state " + string(e.state)
}
