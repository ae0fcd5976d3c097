package interp

import (
	"fmt"
	"sync"

	"hyperq/internal/qlang/ast"
	"hyperq/internal/qlang/parse"
	"hyperq/internal/qlang/qval"
)

// Interp is an in-memory Q evaluator playing the role of a kdb+ server.
// Like kdb+, it executes one request at a time: Eval serializes concurrent
// callers on a mutex, which is precisely how kdb+ accomplishes isolation
// (paper §2.2).
type Interp struct {
	mu      sync.Mutex
	globals map[string]qval.Value
}

// New returns an empty interpreter.
func New() *Interp {
	return &Interp{globals: make(map[string]qval.Value)}
}

// SetGlobal installs a server-level variable, e.g. a loaded table.
func (in *Interp) SetGlobal(name string, v qval.Value) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.globals[name] = v
}

// Global fetches a server-level variable.
func (in *Interp) Global(name string) (qval.Value, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	v, ok := in.globals[name]
	return v, ok
}

// Eval parses and evaluates a Q program, returning the value of its last
// statement. The whole request runs under the server lock, mirroring the
// kdb+ single-threaded main loop.
func (in *Interp) Eval(src string) (qval.Value, error) {
	prog, err := parse.Parse(src)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	env := &env{in: in}
	var last qval.Value = qval.Identity
	for _, stmt := range prog.Stmts {
		last, err = in.eval(stmt, env)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// env is a local lexical scope. A nil vars map means top level, where
// assignments go to the server's global scope (kdb+ behaviour: names set at
// the console or in a remote query are server globals).
type env struct {
	in     *Interp
	vars   map[string]qval.Value
	parent *env
}

func (e *env) lookup(name string) (qval.Value, bool) {
	for s := e; s != nil; s = s.parent {
		if s.vars != nil {
			if v, ok := s.vars[name]; ok {
				return v, true
			}
		}
	}
	if v, ok := e.in.globals[name]; ok {
		return v, true
	}
	return nil, false
}

// set implements Q assignment semantics: ":" assigns locally inside a
// function body (never promoted, paper §3.2.3), and globally at top level;
// "::" always targets the global scope.
func (e *env) set(name string, v qval.Value, global bool) {
	if global || e.vars == nil {
		e.in.globals[name] = v
		return
	}
	e.vars[name] = v
}

// returnValue carries an explicit ":x" early return through the evaluator.
type returnValue struct {
	v qval.Value
}

func (r *returnValue) Error() string { return "return" }

func (in *Interp) eval(n ast.Node, e *env) (qval.Value, error) {
	switch x := n.(type) {
	case *ast.Lit:
		if lam, ok := x.Val.(*qval.Lambda); ok {
			return lam, nil
		}
		return x.Val, nil
	case *ast.Var:
		if v, ok := e.lookup(x.Name); ok {
			return v, nil
		}
		if _, ok := monads[x.Name]; ok {
			return &builtinRef{name: x.Name}, nil
		}
		if _, ok := dyadFns[x.Name]; ok {
			return &builtinRef{name: x.Name}, nil
		}
		return nil, qval.Errorf(x.Name) // kdb+ reports unknown names as 'name
	case *ast.Assign:
		v, err := in.eval(x.Expr, e)
		if err != nil {
			return nil, err
		}
		e.set(x.Name, v, x.Global)
		return v, nil
	case *ast.Return:
		v, err := in.eval(x.Expr, e)
		if err != nil {
			return nil, err
		}
		return nil, &returnValue{v: v}
	case *ast.Monad:
		return in.evalMonadOp(x.Op, x.X, e)
	case *ast.Dyad:
		return in.evalDyadOp(x.Op, x.L, x.R, e)
	case *ast.Apply:
		return in.evalApply(x, e)
	case *ast.Lambda:
		return &qval.Lambda{Params: x.Params, Source: x.Source, Body: x.Body}, nil
	case *ast.ListExpr:
		items := make([]qval.Value, len(x.Items))
		for i, it := range x.Items {
			v, err := in.eval(it, e)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return qval.FromAtoms(items), nil
	case *ast.AdverbExpr:
		return &adverbValue{adverb: x.Adverb, verb: x.Verb, env: e}, nil
	case *ast.SQLTemplate:
		return in.evalTemplate(x, e)
	case *ast.Program:
		var last qval.Value = qval.Identity
		var err error
		for _, s := range x.Stmts {
			last, err = in.eval(s, e)
			if err != nil {
				return nil, err
			}
		}
		return last, nil
	default:
		return nil, qval.Errorf(fmt.Sprintf("nyi node %T", n))
	}
}

// builtinRef is a first-class reference to a built-in verb, so that
// expressions like "sum each x" or passing verbs as arguments work.
type builtinRef struct {
	name string
}

// Type implements qval.Value.
func (*builtinRef) Type() qval.Type { return qval.KUnary }

// Len implements qval.Value.
func (*builtinRef) Len() int { return -1 }

// String renders the verb name.
func (b *builtinRef) String() string { return b.name }

// adverbValue is a verb modified by an adverb, e.g. +/ or f each, reified as
// a value so it can be applied.
type adverbValue struct {
	adverb string
	verb   ast.Node
	env    *env
}

// Type implements qval.Value.
func (*adverbValue) Type() qval.Type { return qval.KUnary }

// Len implements qval.Value.
func (*adverbValue) Len() int { return -1 }

// String renders the modified verb.
func (a *adverbValue) String() string { return a.verb.QString() + a.adverb }

func (in *Interp) evalMonadOp(op string, xn ast.Node, e *env) (qval.Value, error) {
	x, err := in.eval(xn, e)
	if err != nil {
		return nil, err
	}
	return in.applyMonadOp(op, x, e)
}

func (in *Interp) applyMonadOp(op string, x qval.Value, e *env) (qval.Value, error) {
	switch op {
	case "-":
		return arith("-", qval.Long(0), x)
	case "+":
		return builtinFlip(x)
	case "#":
		return builtinCount(x)
	case "?":
		return builtinDistinct(x)
	case "=":
		return builtinGroup(x)
	case "<":
		return builtinIasc(x)
	case ">":
		return builtinIdesc(x)
	case "!":
		return builtinKey(x)
	case "_":
		return builtinFloorV(x)
	case "~":
		return builtinNot(x)
	case ",":
		return qval.Enlist(x), nil
	case "%":
		return builtinSqrt(x)
	case "&":
		return builtinWhere(x)
	case "|":
		return builtinReverse(x)
	case "$":
		return builtinString(x)
	case "@":
		return qval.Long(int64(x.Type())), nil // type of
	case "^":
		return builtinAsc(x)
	default:
		if fn, ok := monads[op]; ok {
			return fn(x)
		}
		return nil, qval.Errorf("nyi monadic " + op)
	}
}

func (in *Interp) evalDyadOp(op string, ln, rn ast.Node, e *env) (qval.Value, error) {
	// right-to-left: Q evaluates the right operand first.
	r, err := in.eval(rn, e)
	if err != nil {
		return nil, err
	}
	l, err := in.eval(ln, e)
	if err != nil {
		return nil, err
	}
	return in.applyDyadOp(op, l, r, e)
}

func (in *Interp) applyDyadOp(op string, l, r qval.Value, e *env) (qval.Value, error) {
	switch op {
	case "+", "-", "*", "%", "mod", "div", "xbar":
		return arith(op, l, r)
	case "&", "|":
		// boolean intersection/union when both sides are booleans,
		// otherwise min/max
		if lm, ok := boolMask(l); ok {
			if rm, ok2 := boolMask(r); ok2 {
				return boolCombine(op, l, r, lm, rm)
			}
		}
		return arith(op, l, r)
	case "=", "<>", "<", ">", "<=", ">=":
		return compareValues(op, l, r)
	case "~":
		return qval.Bool(qval.EqualValues(l, r) && l.Type() == r.Type()), nil
	case "!":
		return builtinMakeDictOrKey(l, r)
	case ",":
		return joinValues(l, r)
	case "#":
		return builtinTake(l, r)
	case "_":
		return builtinDrop(l, r)
	case "?":
		return builtinFind(l, r)
	case "@":
		return indexApply(l, r)
	case "^":
		return builtinFill(l, r)
	case "$":
		return builtinCast(l, r)
	case ".":
		return indexApply(l, r)
	case "in":
		return builtinIn(l, r)
	case "within":
		return builtinWithin(l, r)
	case "like":
		return builtinLike(l, r)
	case "and":
		return in.applyDyadOp("&", l, r, e)
	case "or":
		return in.applyDyadOp("|", l, r, e)
	case "lj", "ij", "uj", "pj":
		return applyNamedJoin(op, l, r)
	case "insert", "upsert":
		return in.insertRows(l, r)
	default:
		if fn, ok := dyadFns[op]; ok {
			return fn(l, r)
		}
		return nil, qval.Errorf("nyi dyadic " + op)
	}
}

func boolCombine(op string, l, r qval.Value, lm, rm []bool) (qval.Value, error) {
	la, ra := l.Len() < 0, r.Len() < 0
	n := len(lm)
	if la {
		n = len(rm)
	}
	if !la && !ra && len(lm) != len(rm) {
		return nil, qval.Errorf("length")
	}
	get := func(m []bool, atom bool, i int) bool {
		if atom {
			return m[0]
		}
		return m[i]
	}
	if la && ra {
		if op == "&" {
			return qval.Bool(lm[0] && rm[0]), nil
		}
		return qval.Bool(lm[0] || rm[0]), nil
	}
	out := make(qval.BoolVec, n)
	for i := range out {
		a, b := get(lm, la, i), get(rm, ra, i)
		if op == "&" {
			out[i] = a && b
		} else {
			out[i] = a || b
		}
	}
	return out, nil
}

// evalApply evaluates f[a;b;...] or monadic juxtaposition f x.
func (in *Interp) evalApply(x *ast.Apply, e *env) (qval.Value, error) {
	// special forms first
	if v, ok := x.Fn.(*ast.Var); ok {
		switch v.Name {
		case "$": // cond: $[c;t;f] with lazy branches
			if len(x.Args) >= 3 {
				return in.evalCond(x.Args, e)
			}
		case "if", "while", "do":
			// control flow (paper §5 lists while-loops among Q's complex
			// constructs); arguments evaluate lazily, repeatedly for loops
			if _, shadowed := e.lookup(v.Name); !shadowed {
				return in.evalControl(v.Name, x.Args, e)
			}
		case "aj", "aj0":
			return in.evalAj(x.Args, e)
		case "lj", "ij", "uj", "ej", "pj":
			return in.evalJoinCall(v.Name, x.Args, e)
		}
		if _, isGlobal := e.lookup(v.Name); !isGlobal {
			if mf, ok := monads[v.Name]; ok && len(x.Args) == 1 {
				a, err := in.eval(x.Args[0], e)
				if err != nil {
					return nil, err
				}
				return mf(a)
			}
			if df, ok := dyadFns[v.Name]; ok && len(x.Args) == 2 {
				// named dyad called with brackets: f[x;y]
				a, err := in.eval(x.Args[0], e)
				if err != nil {
					return nil, err
				}
				b, err := in.eval(x.Args[1], e)
				if err != nil {
					return nil, err
				}
				return df(a, b)
			}
			if infixOps[v.Name] && len(x.Args) == 2 {
				a, err := in.eval(x.Args[0], e)
				if err != nil {
					return nil, err
				}
				b, err := in.eval(x.Args[1], e)
				if err != nil {
					return nil, err
				}
				return in.applyDyadOp(v.Name, a, b, e)
			}
		}
	}
	// operator used with brackets, e.g. +[1;2]
	if v, ok := x.Fn.(*ast.Var); ok && isOperatorName(v.Name) && len(x.Args) == 2 {
		a, err := in.eval(x.Args[0], e)
		if err != nil {
			return nil, err
		}
		b, err := in.eval(x.Args[1], e)
		if err != nil {
			return nil, err
		}
		return in.applyDyadOp(v.Name, a, b, e)
	}
	fn, err := in.eval(x.Fn, e)
	if err != nil {
		return nil, err
	}
	args := make([]qval.Value, len(x.Args))
	for i, a := range x.Args {
		if a == nil {
			args[i] = nil // projection slot
			continue
		}
		v, err := in.eval(a, e)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return in.applyValue(fn, args, e)
}

var infixOps = map[string]bool{
	"in": true, "within": true, "like": true, "and": true, "or": true,
	"mod": true, "div": true, "xbar": true,
}

func isOperatorName(s string) bool {
	switch s {
	case "+", "-", "*", "%", "&", "|", "=", "<>", "<", ">", "<=", ">=", "~",
		"!", ",", "#", "_", "?", "@", "^", "$", ".":
		return true
	}
	return false
}

// applyValue applies a function value (lambda, builtin reference, adverb
// expression, or data-as-function: list/dict/table indexing).
func (in *Interp) applyValue(fn qval.Value, args []qval.Value, e *env) (qval.Value, error) {
	switch f := fn.(type) {
	case *qval.Lambda:
		return in.callLambda(f, args, e)
	case *builtinRef:
		if mf, ok := monads[f.name]; ok && len(args) == 1 {
			return mf(args[0])
		}
		if df, ok := dyadFns[f.name]; ok && len(args) == 2 {
			return df(args[0], args[1])
		}
		return nil, qval.Errorf("rank")
	case *adverbValue:
		return in.applyAdverb(f, args, e)
	case *qval.Dict:
		if len(args) == 1 {
			return f.Lookup(args[0]), nil
		}
		return nil, qval.Errorf("rank")
	default:
		// data applied to indexes
		if len(args) == 1 && args[0] != nil {
			return indexApply(fn, args[0])
		}
		return nil, qval.Errorf("type")
	}
}

// callLambda invokes a lambda with a fresh local scope. Local assignments
// stay local (paper §3.2.3); an explicit ":x" returns early.
func (in *Interp) callLambda(f *qval.Lambda, args []qval.Value, e *env) (qval.Value, error) {
	body, ok := f.Body.([]ast.Node)
	if !ok {
		// body stored as source text: re-parse (mirrors Hyper-Q, §4.3)
		n, err := parse.ParseExpr(f.Source)
		if err != nil {
			return nil, err
		}
		lam, ok := n.(*ast.Lambda)
		if !ok {
			return nil, qval.Errorf("type")
		}
		body = lam.Body
		if len(f.Params) == 0 {
			f.Params = lam.Params
		}
	}
	if len(args) > len(f.Params) {
		return nil, qval.Errorf("rank")
	}
	local := &env{in: in, vars: make(map[string]qval.Value), parent: nil}
	for i, p := range f.Params {
		if i < len(args) && args[i] != nil {
			local.vars[p] = args[i]
		} else {
			local.vars[p] = qval.Identity
		}
	}
	var last qval.Value = qval.Identity
	var err error
	for _, stmt := range body {
		last, err = in.eval(stmt, local)
		if err != nil {
			if rv, ok := err.(*returnValue); ok {
				return rv.v, nil
			}
			return nil, err
		}
	}
	return last, nil
}

// evalCond implements $[c;t;f;...] with lazy branch evaluation.
func (in *Interp) evalCond(args []ast.Node, e *env) (qval.Value, error) {
	i := 0
	for i+1 < len(args) {
		c, err := in.eval(args[i], e)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			return in.eval(args[i+1], e)
		}
		i += 2
	}
	if i < len(args) {
		return in.eval(args[i], e)
	}
	return qval.Identity, nil
}

func truthy(v qval.Value) bool {
	if b, ok := v.(qval.Bool); ok {
		return bool(b)
	}
	if f, ok := qval.AsFloat(v); ok {
		return f != 0 && !qval.IsNull(v)
	}
	return v.Len() > 0
}

// insertRows implements `tbl insert rows and `tbl upsert rows: the left
// operand names a global table (or is one); the right operand supplies rows
// as a table or a list of column values. It returns the indexes of the new
// rows, like kdb+.
func (in *Interp) insertRows(l, r qval.Value) (qval.Value, error) {
	name := ""
	var target *qval.Table
	switch t := l.(type) {
	case qval.Symbol:
		name = string(t)
		g, ok := in.globals[name]
		if !ok {
			return nil, qval.Errorf(name)
		}
		tbl, ok := qval.Unkey(g)
		if !ok {
			return nil, qval.Errorf("type")
		}
		target = tbl
	case *qval.Table:
		target = t
	default:
		return nil, qval.Errorf("type")
	}
	var rows *qval.Table
	switch x := r.(type) {
	case *qval.Table:
		rows = x
	case *qval.Dict:
		flat, ok := qval.Unkey(x)
		if !ok {
			// dict of col->atom: single row
			syms, ok1 := x.Keys.(qval.SymbolVec)
			if !ok1 {
				return nil, qval.Errorf("type")
			}
			data := make([]qval.Value, len(syms))
			for i := range syms {
				data[i] = qval.Enlist(qval.Index(x.Vals, i))
			}
			rows = qval.NewTable(append([]string(nil), syms...), data)
		} else {
			rows = flat
		}
	case qval.List:
		// positional column values, one entry per column
		if len(x) != len(target.Cols) {
			return nil, qval.Errorf("length")
		}
		data := make([]qval.Value, len(x))
		for i, col := range x {
			if col.Len() < 0 {
				col = qval.Enlist(col)
			}
			data[i] = col
		}
		rows = qval.NewTable(append([]string(nil), target.Cols...), data)
	default:
		return nil, qval.Errorf("type")
	}
	before := target.Len()
	joined, err := appendTables(target, rows)
	if err != nil {
		return nil, err
	}
	newTable := joined.(*qval.Table)
	if name != "" {
		in.globals[name] = newTable
	} else {
		*target = *newTable
	}
	out := make(qval.LongVec, newTable.Len()-before)
	for i := range out {
		out[i] = int64(before + i)
	}
	return out, nil
}

// evalControl implements the if/while/do control constructs. Bodies are
// statements evaluated for effect; loops guard against runaway iteration.
func (in *Interp) evalControl(kind string, args []ast.Node, e *env) (qval.Value, error) {
	if len(args) < 1 {
		return nil, qval.Errorf("rank")
	}
	const maxIters = 10_000_000
	runBody := func() error {
		for _, stmt := range args[1:] {
			if stmt == nil {
				continue
			}
			if _, err := in.eval(stmt, e); err != nil {
				return err
			}
		}
		return nil
	}
	switch kind {
	case "if":
		c, err := in.eval(args[0], e)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			if err := runBody(); err != nil {
				return nil, err
			}
		}
	case "while":
		for iters := 0; ; iters++ {
			if iters > maxIters {
				return nil, qval.Errorf("limit: while exceeded iteration bound")
			}
			c, err := in.eval(args[0], e)
			if err != nil {
				return nil, err
			}
			if !truthy(c) {
				break
			}
			if err := runBody(); err != nil {
				return nil, err
			}
		}
	case "do":
		nv, err := in.eval(args[0], e)
		if err != nil {
			return nil, err
		}
		n, ok := qval.AsLong(nv)
		if !ok || n < 0 {
			return nil, qval.Errorf("type")
		}
		for i := int64(0); i < n; i++ {
			if err := runBody(); err != nil {
				return nil, err
			}
		}
	}
	return qval.Identity, nil
}
