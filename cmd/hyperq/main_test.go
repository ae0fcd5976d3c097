package main

import (
	"context"
	"flag"
	"io"
	"net"
	"strings"
	"testing"

	"hyperq/internal/config"
)

func parse(t *testing.T, args ...string) (*options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("hyperq", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o, fs
}

// TestEngineFlagsAreConfigs: every engine flag is internal/config's, with
// its name, default and usage — cmd/pgserver has the same test, so the two
// servers cannot drift apart.
func TestEngineFlagsAreConfigs(t *testing.T) {
	_, fs := parse(t)
	var ref flag.FlagSet
	new(config.Engine).RegisterFlags(&ref)
	ref.VisitAll(func(want *flag.Flag) {
		got := fs.Lookup(want.Name)
		if got == nil {
			t.Errorf("engine flag -%s is not registered", want.Name)
		} else if got.DefValue != want.DefValue || got.Usage != want.Usage {
			t.Errorf("-%s: default %q usage %q, want %q %q", want.Name, got.DefValue, got.Usage, want.DefValue, want.Usage)
		}
	})
}

// TestBenchmarkFlags pins the flags bench/stack.go starts hyperq with, and
// the whole flag set, so the options this binary dropped (-result-path,
// -exec, -parallel, the checkpoint-layout, read-path and index-threshold flags, and the
// scatter-gather cluster flags) stay dropped: the flag package exits 2 on them.
func TestBenchmarkFlags(t *testing.T) {
	_, fs := parse(t)
	for name, def := range map[string]string{"listen": "127.0.0.1:5010", "backend": ""} {
		if f := fs.Lookup(name); f == nil || f.DefValue != def {
			t.Errorf("-%s: %+v, want default %q", name, f, def)
		}
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := "backend backend-db backend-password backend-user cache-entries data-dir drain-timeout embedded " +
		"listen mdi-ttl mem-budget pool-size q-password q-user query-timeout request-timeout " +
		"stats-addr trades wal-sync"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("flags %q, want %q", got, want)
	}
}

// TestValidate: a flag the chosen backend mode would ignore is an error.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // substring of the error, "" = valid
	}{
		{[]string{"-backend", "h:1"}, ""},
		{[]string{"-embedded", "-trades", "5", "-stats-addr", ":0"}, ""},
		{[]string{"-embedded", "-data-dir", "d", "-wal-sync", "none", "-mem-budget", "1"}, ""},
		// exactly one backend: neither, or both (the engine would ignore -backend)
		{nil, "exactly one of -backend or -embedded"},
		{[]string{"-embedded", "-backend", "h:1"}, "exactly one of -backend or -embedded"},
		// engine flags without -embedded
		{[]string{"-backend", "h:1", "-data-dir", "d"}, "-data-dir"},
		{[]string{"-backend", "h:1", "-wal-sync", "none"}, "-wal-sync"},
		{[]string{"-backend", "h:1", "-mem-budget", "1"}, "-mem-budget"},
		{[]string{"-backend", "h:1", "-stats-addr", ":0"}, "-stats-addr"},
		{[]string{"-backend", "h:1", "-trades", "5"}, "-trades"},
		// store settings without the store
		{[]string{"-embedded", "-mem-budget", "1"}, "-data-dir"},
		{[]string{"-embedded", "-wal-sync", "none"}, "-data-dir"},
	} {
		o, fs := parse(t, tc.args...)
		err := o.validate(fs)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.bad)
		}
	}
}

// TestStartupFailureCheckpoints: when run fails after the store is open —
// here on a -listen address already in use — it still checkpoints and
// closes the store, so the next start restores the demo tables without
// WAL replay.
func TestStartupFailureCheckpoints(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o, fs := parse(t, "-listen", l.Addr().String(), "-embedded", "-data-dir", t.TempDir(), "-trades", "200")
	if err := o.validate(fs); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("run on a bound address: %v, want a listen error", err)
	}

	in, err := o.engine.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if got := strings.Join(in.DB.TableNames(), ","); got != "daily,quotes,refdata,trades" {
		t.Errorf("reopened catalog holds %q, want the four demo tables", got)
	}
	if in.Store.ReplayedChanges() {
		t.Error("reopen replayed WAL: the failed start exited without its final checkpoint")
	}
}
