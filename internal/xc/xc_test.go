package xc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
)

func TestFSMBasicTransitions(t *testing.T) {
	f := NewFSM("test", "a")
	var log []string
	f.On("a", "go", "b", func(p any) ([]Event, error) {
		log = append(log, "a->b")
		return []Event{{Kind: "go2"}}, nil
	})
	f.On("b", "go2", "c", func(p any) ([]Event, error) {
		log = append(log, "b->c")
		return nil, nil
	})
	f.Send(Event{Kind: "go"})
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	if f.State() != "c" || len(log) != 2 {
		t.Fatalf("state = %v log = %v", f.State(), log)
	}
	tr := f.Trace()
	if len(tr) != 2 || !strings.Contains(tr[0], "a --go--> b") {
		t.Fatalf("trace = %v", tr)
	}
}

func TestFSMRejectsUnexpectedEvents(t *testing.T) {
	f := NewFSM("test", "a")
	f.On("a", "x", "b", nil)
	f.Send(Event{Kind: "bogus"})
	if err := f.Drain(); err == nil {
		t.Fatal("event with no transition should fail the machine")
	}
	if f.Err() == nil {
		t.Fatal("failure should be sticky")
	}
	// after Reset the machine works again
	f.Reset("a")
	if f.Err() != nil {
		t.Fatal("reset should clear failure")
	}
	f.Send(Event{Kind: "x"})
	if err := f.Drain(); err != nil || f.State() != "b" {
		t.Fatalf("after reset: %v %v", err, f.State())
	}
}

func TestFSMActionErrorSticks(t *testing.T) {
	f := NewFSM("test", "a")
	boom := errors.New("boom")
	f.On("a", "x", "b", func(any) ([]Event, error) { return nil, boom })
	f.Send(Event{Kind: "x"})
	if err := f.Drain(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func newCompiler(t *testing.T) *CrossCompiler {
	t.Helper()
	db := pgdb.NewDB()
	b, err := gateway.Pipe(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	trades := qval.NewTable(
		[]string{"Symbol", "Price"},
		[]qval.Value{qval.SymbolVec{"A", "B", "A"}, qval.FloatVec{1, 2, 3}})
	if err := core.LoadQTable(context.Background(), b, "trades", trades); err != nil {
		t.Fatal(err)
	}
	s := core.NewPlatform().NewSession(b, core.Config{})
	t.Cleanup(func() { s.Close() })
	return New(s)
}

func TestCrossCompilerQueryLifeCycle(t *testing.T) {
	x := newCompiler(t)
	v, stats, err := x.HandleQuery(context.Background(), "select Price from trades where Symbol=`A")
	if err != nil {
		t.Fatal(err)
	}
	tbl := v.(*qval.Table)
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	if stats == nil || stats.Stages.Translation() <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// both machines completed their life cycle
	if got := x.pt.State(); got != PTDone {
		t.Fatalf("PT state = %v", got)
	}
	if got := x.qt.State(); got != QTDone {
		t.Fatalf("QT state = %v", got)
	}
	// the PT trace shows the §3.4 life cycle
	trace := strings.Join(x.PTTrace(), "\n")
	for _, want := range []string{"pt/idle", "pt/translating", "pt/pivoting", "pt/done"} {
		if !strings.Contains(trace, want) {
			t.Fatalf("PT trace missing %q:\n%s", want, trace)
		}
	}
}

func TestCrossCompilerReuseAcrossQueries(t *testing.T) {
	x := newCompiler(t)
	for i := 0; i < 3; i++ {
		if _, _, err := x.HandleQuery(context.Background(), "select from trades"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrossCompilerErrorPropagation(t *testing.T) {
	x := newCompiler(t)
	_, _, err := x.HandleQuery(context.Background(), "select from nosuchtable")
	if err == nil {
		t.Fatal("bad query should fail through the FSMs")
	}
	// and the compiler recovers for the next query
	if _, _, err := x.HandleQuery(context.Background(), "select from trades"); err != nil {
		t.Fatalf("compiler did not recover: %v", err)
	}
}
