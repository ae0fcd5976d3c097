// Package config is the one place the embedded engine's settings are
// declared, validated and applied. cmd/hyperq (-embedded), cmd/pgserver and
// internal/sidebyside all bring the engine up through Engine.Open, so a
// setting has one flag name, one usage string and one code path from the
// command line to pgdb and persist.
package config

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"

	"hyperq/internal/persist"
	"hyperq/internal/pgdb"
)

// Engine holds every setting of one embedded engine instance.
type Engine struct {
	// DataDir, when non-empty, backs the database with the durable store;
	// Sync and MemBudget configure that store and mean nothing without it.
	DataDir   string
	Sync      persist.SyncMode
	MemBudget int64
	// StatsAddr, when non-empty, serves the persist.* counters, pgdb's
	// access-path counters (pgdb.index_hits, pgdb.asof_builds,
	// pgdb.asof_hits) and its walker-block counters (pgdb.row_fallbacks.*,
	// one per reason) at http://StatsAddr/debug/vars.
	StatsAddr string
}

// Defaults is the engine a binary runs when no engine flag is given, in
// memory or over a store given only -data-dir. What is not a field is not a
// setting: the servers run the compiled engine — vector scans, fused
// aggregates, column-granular fault-in and sorted-attribute access paths,
// with the AST walker as the only row fallback — which needs no flag (the
// walker alone is the test reference, which qdiff selects itself), a
// statement runs on one goroutine, tables keep no hash index, and
// checkpoints always encode per chunk and read back by pread.
func Defaults() Engine {
	return Engine{Sync: persist.SyncBatch}
}

// RegisterFlags resets e to Defaults and defines the engine flags on fs,
// bound to e. With only, just the named flags are defined (qdiff exposes a
// subset); the rest of e keeps its defaults.
func (e *Engine) RegisterFlags(fs *flag.FlagSet, only ...string) {
	*e = Defaults()
	var all flag.FlagSet
	all.StringVar(&e.DataDir, "data-dir", e.DataDir, "durable storage directory (empty = memory only)")
	all.Func("wal-sync", "WAL durability `mode`: always (fsync per statement), batch (group commit, default), none; needs -data-dir", func(s string) (err error) {
		e.Sync, err = persist.ParseSyncMode(s)
		return err
	})
	all.Int64Var(&e.MemBudget, "mem-budget", e.MemBudget, "resident column-data budget in bytes (0 = unlimited; needs -data-dir)")
	all.StringVar(&e.StatsAddr, "stats-addr", e.StatsAddr, "HTTP address serving persist and access-path counters at /debug/vars (empty = off)")
	all.VisitAll(func(f *flag.Flag) {
		if len(only) == 0 || slices.Contains(only, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
}

// Explicit lists the engine flags given on fs's command line, so a binary
// can refuse them on a path that never opens an engine.
func Explicit(fs *flag.FlagSet) []string {
	var ref flag.FlagSet
	new(Engine).RegisterFlags(&ref)
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if ref.Lookup(f.Name) != nil {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// Validate rejects store settings given on fs's command line without the
// store they configure; before this check they were silently ignored. Only
// explicitly set flags count, so a default never trips it.
func (e *Engine) Validate(fs *flag.FlagSet) error {
	if e.DataDir != "" {
		return nil
	}
	var orphans []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "wal-sync", "mem-budget":
			orphans = append(orphans, "-"+f.Name)
		}
	})
	if len(orphans) > 0 {
		return fmt.Errorf("%s: store settings need -data-dir", strings.Join(orphans, ", "))
	}
	return nil
}

// Instance is a running engine.
type Instance struct {
	DB *pgdb.DB
	// Store is the durable store, nil for a memory-only engine.
	Store *persist.Store
	// Restored reports that Open found tables in DataDir.
	Restored bool
	// StatsAddr is the bound stats address, empty when off.
	StatsAddr string
}

// Open creates the database, attaches the durable store when
// DataDir is set and starts the stats endpoint when StatsAddr is set. The
// caller owns the returned instance's Close.
func (e *Engine) Open() (*Instance, error) {
	in := &Instance{DB: pgdb.NewDB()}
	if e.DataDir != "" {
		store, err := persist.Open(in.DB, persist.Options{Dir: e.DataDir, Sync: e.Sync, MemBudget: e.MemBudget})
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", e.DataDir, err)
		}
		in.Store = store
		in.Restored = len(in.DB.TableNames()) > 0
	}
	if e.StatsAddr != "" {
		var stats *persist.Stats
		if in.Store != nil {
			stats = in.Store.Stats()
		}
		addr, err := persist.ServeStats(e.StatsAddr, stats, in.DB.IndexStats().Vars)
		if err != nil {
			if in.Store != nil {
				in.Store.Close() // nothing written since Open: the WAL already holds it all
			}
			return nil, fmt.Errorf("stats: %w", err)
		}
		in.StatsAddr = addr
	}
	return in, nil
}

// Close checkpoints and closes the durable store, so the next Open replays
// no WAL. On a memory-only engine it does nothing.
func (in *Instance) Close() error {
	if in.Store == nil {
		return nil
	}
	var errs []error
	if err := in.Store.Checkpoint(); err != nil {
		errs = append(errs, fmt.Errorf("persist: final checkpoint: %w", err))
	}
	if err := in.Store.Close(); err != nil {
		errs = append(errs, fmt.Errorf("persist: close: %w", err))
	}
	return errors.Join(errs...)
}
