package persist

import (
	"encoding/json"
	"net"
	"net/http"
	"sync/atomic"
)

// Stats counts the store's cold-read activity. All fields are updated with
// atomics so concurrent faulting scans account without contention; read a
// coherent-enough view with Snapshot.
type Stats struct {
	SegmentsFaulted atomic.Int64 // loader calls (one per faulting segment)
	ColumnsFaulted  atomic.Int64 // (segment, column) pairs materialized
	BytesRead       atomic.Int64 // chunk payload bytes read via file I/O
	ChunksDecoded   atomic.Int64 // chunk payloads decoded
	Evictions       atomic.Int64 // columns dropped by the memory budget
}

// StatsSnapshot is a plain-value copy of Stats at one instant.
type StatsSnapshot struct {
	SegmentsFaulted int64
	ColumnsFaulted  int64
	BytesRead       int64
	ChunksDecoded   int64
	Evictions       int64
}

// Snapshot reads every counter once.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		SegmentsFaulted: s.SegmentsFaulted.Load(),
		ColumnsFaulted:  s.ColumnsFaulted.Load(),
		BytesRead:       s.BytesRead.Load(),
		ChunksDecoded:   s.ChunksDecoded.Load(),
		Evictions:       s.Evictions.Load(),
	}
}

// Stats exposes the store's I/O counters; the pointer stays valid for the
// store's lifetime and past Close.
func (st *Store) Stats() *Stats { return &st.stats }

// ServeStats serves the counters expvar-style as a flat JSON object at
// /debug/vars on addr. It binds synchronously (so address errors surface
// to the caller and ":0" resolves to a concrete port in the returned
// address) and serves in the background for the process lifetime. Extra
// counter sources (e.g. the engine's index stats) merge into the same
// document; later sources win on key collisions.
func ServeStats(addr string, s *Stats, extras ...func() map[string]int64) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		vars := map[string]int64{}
		if s != nil { // nil when serving a memory-only engine's counters
			snap := s.Snapshot()
			vars = map[string]int64{
				"persist.segments_faulted": snap.SegmentsFaulted,
				"persist.columns_faulted":  snap.ColumnsFaulted,
				"persist.bytes_read":       snap.BytesRead,
				"persist.chunks_decoded":   snap.ChunksDecoded,
				"persist.evictions":        snap.Evictions,
			}
		}
		for _, fn := range extras {
			for k, v := range fn() {
				vars[k] = v
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(vars)
	})
	go http.Serve(l, mux)
	return l.Addr().String(), nil
}
