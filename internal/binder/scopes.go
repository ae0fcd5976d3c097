// Package binder performs the second step of algebrization (paper §3.2.2):
// semantic analysis of the Q AST and bottom-up binding into XTRA. Variable
// references are resolved through a hierarchy of variable scopes — local,
// session, server (Figure 3) — with the backend catalog (MDI) at the bottom.
package binder

import (
	"context"
	"sync"
	"sync/atomic"

	"hyperq/internal/mdi"
	"hyperq/internal/qlang/qval"
)

// VarKind classifies what a variable denotes.
type VarKind int

// Variable kinds.
const (
	// KindTable is a variable backed by a backend table (or temp table).
	KindTable VarKind = iota
	// KindView is a table variable backed by a backend view (logical
	// materialization, paper §4.3).
	KindView
	// KindScalar is an in-memory scalar (or small list) value.
	KindScalar
	// KindFunction is a Q function stored as text and re-algebrized on
	// invocation (paper §4.3).
	KindFunction
)

// VarDef is one variable definition in a scope.
type VarDef struct {
	Name    string
	Kind    VarKind
	Meta    *mdi.TableMeta // table/view: backend schema
	Backing string         // table/view: backend object name
	Value   qval.Value     // scalar: the value
	Source  string         // function: original "{...}" text
}

// scope is one level of the hierarchy.
type scope struct {
	vars map[string]*VarDef
}

func newScope() *scope { return &scope{vars: map[string]*VarDef{}} }

// ServerStore is the server-level variable registry shared by all sessions,
// standing in for the "publicly accessible schemas" Hyper-Q uses to store
// global variables in the backend (paper §3.2.3).
type ServerStore struct {
	mu   sync.RWMutex
	vars map[string]*VarDef
	// gen counts mutations; part of the query-cache key, so any
	// server-scope change invalidates translations that bound against it.
	gen atomic.Uint64
}

// NewServerStore creates an empty server-scope store.
func NewServerStore() *ServerStore {
	return &ServerStore{vars: map[string]*VarDef{}}
}

// Get looks up a server variable.
func (s *ServerStore) Get(name string) (*VarDef, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vars[name]
	return v, ok
}

// Put installs or replaces a server variable.
func (s *ServerStore) Put(v *VarDef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vars[v.Name] = v
	s.gen.Add(1)
}

// Generation returns the store's mutation counter.
func (s *ServerStore) Generation() uint64 { return s.gen.Load() }

// Names lists defined server variables.
func (s *ServerStore) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.vars))
	for n := range s.vars {
		out = append(out, n)
	}
	return out
}

// Scopes implements the paper's Figure 3: a stack of local scopes over a
// session scope over the server scope, with the MDI at the bottom.
//
// Lookup starts at the innermost applicable scope and walks outward; upserts
// inside a function stay local (never promoted), upserts outside a function
// go to the session scope, and session variables are promoted to the server
// scope when the session is destroyed.
type Scopes struct {
	server  *ServerStore
	mdi     *mdi.MDI
	session *scope
	locals  []*scope
	// id is process-unique and gen counts session-scope mutations; both
	// feed Fingerprint so the query cache never conflates two sessions'
	// private state.
	id  uint64
	gen uint64
}

// scopesID hands out process-unique session-scope identities.
var scopesID atomic.Uint64

// NewScopes builds the hierarchy for one session.
func NewScopes(server *ServerStore, m *mdi.MDI) *Scopes {
	return &Scopes{server: server, mdi: m, session: newScope(), id: scopesID.Add(1)}
}

// Fingerprint identifies the variable-visibility state top-level statements
// bind against; it changes whenever the session scope or the shared server
// scope mutates. Sessions whose session scope is empty share a fingerprint
// (their bindings can only see shared state), so identical queries from
// fresh sessions share query-cache entries; once a session holds private
// variables its fingerprint mixes in its unique identity — two sessions
// with identical-looking histories still bind to different backing temp
// tables and must never collide.
func (s *Scopes) Fingerprint() uint64 {
	fp := s.server.Generation()
	if len(s.session.vars) > 0 || s.gen > 0 {
		const mix = 0x9e3779b97f4a7c15 // golden-ratio multiplier disperses counter bits
		fp ^= (s.id*mix ^ s.gen) * mix
	}
	return fp
}

// PushLocal enters a function body (a new local scope).
func (s *Scopes) PushLocal() { s.locals = append(s.locals, newScope()) }

// PopLocal leaves a function body, discarding its local variables — local
// upserts never get promoted (paper §3.2.3).
func (s *Scopes) PopLocal() {
	if len(s.locals) > 0 {
		s.locals = s.locals[:len(s.locals)-1]
	}
}

// InFunction reports whether a local scope is active.
func (s *Scopes) InFunction() bool { return len(s.locals) > 0 }

// Lookup resolves a name: local scopes innermost-first, then session, then
// server, then the backend catalog via MDI (a table known only to the
// database). The context bounds the catalog round trip a cold MDI lookup
// issues. It returns nil when nothing is found.
func (s *Scopes) Lookup(ctx context.Context, name string) (*VarDef, error) {
	for i := len(s.locals) - 1; i >= 0; i-- {
		if v, ok := s.locals[i].vars[name]; ok {
			return v, nil
		}
	}
	if v, ok := s.session.vars[name]; ok {
		return v, nil
	}
	if v, ok := s.server.Get(name); ok {
		return v, nil
	}
	if s.mdi != nil {
		meta, err := s.mdi.LookupTable(ctx, name)
		if err == nil {
			return &VarDef{Name: name, Kind: KindTable, Meta: meta, Backing: name}, nil
		}
		// a context abort is a hard failure, not "name unknown"
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	return nil, nil
}

// Upsert defines or redefines a variable according to the paper's rules:
// inside a function the write lands in the innermost local scope; outside
// it lands in the session scope.
func (s *Scopes) Upsert(v *VarDef) {
	if len(s.locals) > 0 {
		s.locals[len(s.locals)-1].vars[v.Name] = v
		return
	}
	s.session.vars[v.Name] = v
	s.gen++
}

// UpsertGlobal writes directly to the server scope (Q's :: amend).
func (s *Scopes) UpsertGlobal(v *VarDef) { s.server.Put(v) }

// DestroySession promotes session variables to the server scope and clears
// the session — the promotion the paper describes as part of session scope
// destruction (§3.2.3).
func (s *Scopes) DestroySession() {
	for _, v := range s.session.vars {
		s.server.Put(v)
	}
	s.session = newScope()
	s.locals = nil
	s.gen++
}
