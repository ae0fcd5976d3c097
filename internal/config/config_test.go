package config

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hyperq/internal/persist"
	"hyperq/internal/pgdb"
)

// parse registers the engine flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) (*Engine, *flag.FlagSet, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e := &Engine{}
	e.RegisterFlags(fs)
	return e, fs, fs.Parse(args)
}

// TestDefaults pins what a binary runs when no engine flag is given — the
// benchmark starts pgserver that way, so a changed default is a changed
// baseline — and that these four flags are all the engine has. The dropped
// execution-engine, parallelism, checkpoint-layout, read-path and
// index-threshold flags are unknown, which the binaries' flag sets answer with exit 2.
func TestDefaults(t *testing.T) {
	e, fs, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	want := Engine{Sync: persist.SyncBatch}
	if *e != want {
		t.Errorf("zero-argument parse = %+v, want %+v", *e, want)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got, want := strings.Join(names, " "), "data-dir mem-budget stats-addr wal-sync"; got != want {
		t.Errorf("engine flags %q, want %q", got, want)
	}
}

func TestParse(t *testing.T) {
	e, _, err := parse(t, "-data-dir", "d", "-wal-sync", "none", "-mem-budget", "4096", "-stats-addr", ":0")
	if err != nil {
		t.Fatal(err)
	}
	want := Engine{DataDir: "d", Sync: persist.SyncNone, MemBudget: 4096, StatsAddr: ":0"}
	if *e != want {
		t.Errorf("parse = %+v, want %+v", *e, want)
	}
	// the servers run the compiled engine only (qdiff picks the interpreter
	// with a flag of its own) and a statement on one goroutine; checkpoints
	// always encode per chunk, and the index threshold is a constant
	for _, bad := range [][]string{
		{"-exec", "interpreted"}, {"-parallel", "2"}, {"-wal-sync", "sometimes"},
		{"-compress"}, {"-index-min-rows", "0"},
	} {
		if _, _, err := parse(t, bad...); err == nil {
			t.Errorf("%v parsed without error", bad)
		}
	}
}

func TestRegisterSubset(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := &Engine{}
	e.RegisterFlags(fs, "mem-budget", "stats-addr")
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, ","); got != "mem-budget,stats-addr" {
		t.Errorf("subset registered %q, want mem-budget,stats-addr", got)
	}
	if e.Sync != persist.SyncBatch {
		t.Errorf("unregistered setting lost its default: %+v", *e)
	}
}

// TestValidate: a store setting without the store is an error only when it
// was given on the command line.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // substring of the error, "" = valid
	}{
		{nil, ""},
		{[]string{"-stats-addr", ":0"}, ""},
		{[]string{"-data-dir", "d", "-mem-budget", "1", "-wal-sync", "none"}, ""},
		{[]string{"-mem-budget", "1"}, "-mem-budget"},
		{[]string{"-wal-sync", "batch"}, "-wal-sync"}, // explicit, though equal to the default
	} {
		e, fs, err := parse(t, tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		err = e.Validate(fs)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), tc.bad)):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.bad)
		}
	}
}

func TestExplicit(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.String("listen", "", "")
	new(Engine).RegisterFlags(fs)
	if err := fs.Parse([]string{"-listen", "x", "-stats-addr", ":0", "-mem-budget", "1"}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(Explicit(fs), " "); got != "-mem-budget -stats-addr" {
		t.Errorf("Explicit = %q, want the two engine flags given", got)
	}
}

// TestOpenClose drives the whole bring-up and pins what the benchmark reads
// from outside the process: the wal.log file name and the persist.* and
// pgdb.* keys at /debug/vars. Both sets are exact: the counters of the
// deleted memory-mapped and read-ahead paths and of the deleted hash index
// are gone, and the walker-block counters are there, one per reason.
func TestOpenClose(t *testing.T) {
	e := Defaults()
	e.DataDir = t.TempDir()
	e.StatsAddr = "127.0.0.1:0"
	in, err := e.Open()
	if err != nil {
		t.Fatal(err)
	}
	if in.Restored || in.DB.ExecutionMode() != pgdb.ExecCompiled {
		t.Errorf("fresh instance: restored=%v exec=%v", in.Restored, in.DB.ExecutionMode())
	}
	if _, err := in.DB.NewSession().ExecScript("CREATE TABLE t (a bigint); INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(e.DataDir, "wal.log")); err != nil {
		t.Errorf("wal.log: %v", err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", in.StatsAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	vars := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for prefix, want := range map[string]string{
		"persist.": "persist.bytes_read persist.chunks_decoded persist.columns_faulted persist.evictions persist.segments_faulted",
		"pgdb.": "pgdb.asof_builds pgdb.asof_hits pgdb.index_hits pgdb.row_fallbacks.boxed_input " +
			"pgdb.row_fallbacks.grouped pgdb.row_fallbacks.projection pgdb.row_fallbacks.where",
	} {
		var keys []string
		for key := range vars {
			if strings.HasPrefix(key, prefix) {
				keys = append(keys, key)
			}
		}
		slices.Sort(keys)
		if got := strings.Join(keys, " "); got != want {
			t.Errorf("/debug/vars %s keys %q, want %q", prefix, got, want)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	// Close checkpointed: the reopen restores the table and replays nothing
	e.StatsAddr = ""
	in, err = e.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if !in.Restored || in.Store.ReplayedChanges() {
		t.Errorf("reopen: restored=%v replayed=%v, want a checkpointed catalog", in.Restored, in.Store.ReplayedChanges())
	}
}

// TestOpenStatsBindFailure: a stats address that cannot bind fails Open and
// releases the store it had already opened.
func TestOpenStatsBindFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	e := Defaults()
	e.DataDir = t.TempDir()
	e.StatsAddr = l.Addr().String()
	if _, err := e.Open(); err == nil {
		t.Fatal("Open bound an address already in use")
	}
	e.StatsAddr = ""
	in, err := e.Open()
	if err != nil {
		t.Fatalf("reopen after failed Open: %v", err)
	}
	in.Close()
}

// TestMemoryOnlyClose: Close on an engine without a store is a no-op.
func TestMemoryOnlyClose(t *testing.T) {
	e := Defaults()
	in, err := e.Open()
	if err != nil {
		t.Fatal(err)
	}
	if in.Store != nil || in.StatsAddr != "" {
		t.Errorf("memory-only instance has store=%v stats=%q", in.Store, in.StatsAddr)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestREADMEFlagTable holds README's engine-flag table to RegisterFlags:
// one row per flag, carrying its usage string verbatim and, where the flag
// package knows one, its default, and no row for a flag the engine lacks.
func TestREADMEFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var fs flag.FlagSet
	new(Engine).RegisterFlags(&fs)
	fs.VisitAll(func(f *flag.Flag) {
		prefix := "| `-" + f.Name + "` | "
		var row string
		for _, line := range strings.Split(string(readme), "\n") {
			if strings.HasPrefix(line, prefix) {
				row = line
			}
		}
		switch {
		case row == "":
			t.Errorf("README has no row for -%s", f.Name)
		case !strings.Contains(row, " | "+f.Usage+" | "):
			t.Errorf("README row for -%s lacks the usage string %q", f.Name, f.Usage)
		case f.DefValue != "" && !strings.HasPrefix(row, prefix+"`"+f.DefValue+"` | "):
			t.Errorf("README row for -%s lacks the default %q", f.Name, f.DefValue)
		}
	})
	table := strings.Split(string(readme), "| flag | default | usage | measured by |\n")
	if len(table) != 2 {
		t.Fatal("README has no single engine-flag table")
	}
	for _, line := range strings.Split(table[1], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `-"), "`")
		if fs.Lookup(name) == nil {
			t.Errorf("README has a row for -%s, which is not an engine flag", name)
		}
	}
}
