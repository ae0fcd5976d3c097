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
	fs := flag.NewFlagSet("pgserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o, fs
}

// TestEngineFlagsAreConfigs: every engine flag is internal/config's, with
// its name, default and usage — cmd/hyperq has the same test, so the two
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

// TestBenchmarkFlags pins the flags bench/stack.go starts pgserver with — a
// rename here would otherwise first show up as a failed benchmark run — and
// the whole flag set, so the dropped execution-engine, parallelism,
// checkpoint-layout, read-path and index-threshold flags stay dropped: the flag package exits
// 2 on them.
func TestBenchmarkFlags(t *testing.T) {
	_, fs := parse(t)
	for name, def := range map[string]string{
		"listen": "127.0.0.1:5432", "stats-addr": "", "data-dir": "", "mem-budget": "0",
	} {
		if f := fs.Lookup(name); f == nil || f.DefValue != def {
			t.Errorf("-%s: %+v, want default %q", name, f, def)
		}
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := "auth data-dir demo listen mem-budget password seed stats-addr trades user wal-sync"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("flags %q, want %q", got, want)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // substring of the error, "" = valid
	}{
		{[]string{"-demo", "-stats-addr", ":0", "-auth", "md5"}, ""},
		{[]string{"-data-dir", "d", "-mem-budget", "1", "-wal-sync", "none"}, ""},
		{[]string{"-auth", "kerberos"}, "auth"},
		{[]string{"-mem-budget", "1"}, "-mem-budget"},
		{[]string{"-mem-budget", "1", "-wal-sync", "none"}, "-mem-budget, -wal-sync"},
		{[]string{"-wal-sync", "always"}, "-wal-sync"},
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
// closes the store, so the demo tables it loaded are restored without WAL
// replay by the next start.
func TestStartupFailureCheckpoints(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dir := t.TempDir()
	o, fs := parse(t, "-listen", l.Addr().String(), "-data-dir", dir, "-demo", "-trades", "200")
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
