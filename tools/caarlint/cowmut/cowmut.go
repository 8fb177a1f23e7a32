// Package cowmut flags mutations of copy-on-write snapshots obtained from
// sync/atomic.Pointer.Load.
//
// The engine's name-resolution directory is published as an immutable
// snapshot behind an atomic.Pointer: readers load it once and writers must
// clone-mutate-publish a fresh copy. Writing through a loaded snapshot —
// a field store, a map insert or delete, a slice element store — races every
// concurrent reader without the race detector necessarily noticing (the
// racing reader may not run during the test), so the rule is enforced
// syntactically: a value that flows from Pointer.Load must never appear as
// a mutation target.
//
// Values that pass through a function call (for example d.clone()) are
// deliberately NOT tracked: returning a private deep copy is exactly the
// blessed clone-mutate-publish path.
//
// A snapshot split into sub-tables lets a writer copy only the table it
// changes and share the others with the published snapshot
// (nd := &dir{users: d.users, ads: clone(d.ads)}). Such a field keeps the
// taint of the value stored in it: nd.ads is private, nd.users.m[k] = v is
// reported.
package cowmut

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"caar/tools/caarlint/directive"
)

const Doc = `flag writes through values loaded from a sync/atomic.Pointer

Snapshots published via atomic.Pointer are immutable by contract: after
p.Load(), the snapshot may be read but never written. Writers must clone the
snapshot, mutate the private copy, and Store the result. Any assignment, map
write, delete, clear, or increment whose target is reachable from a Load
result is reported, including through a field of a new snapshot that shares
a sub-table with the loaded one.`

const name = "cowmut"

var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      Doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	sup := directive.New(pass)

	nodeFilter := []ast.Node{(*ast.FuncDecl)(nil)}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		checkFunc(pass, sup, fd.Body)
	})
	sup.Finish(name)
	return nil, nil
}

// checkFunc taints variables assigned from atomic.Pointer.Load results
// (including aliases formed by selecting fields or indexing into tainted
// values) and reports every mutation whose target is tainted. Function
// literals nested in body are covered by the same walk, so a goroutine
// mutating a captured snapshot is caught too.
func checkFunc(pass *analysis.Pass, sup *directive.Suppressor, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)
	// shared records, per untainted struct variable, the fields that hold a
	// value reached from a Load — a sub-table a new snapshot shares with the
	// published one.
	shared := make(map[types.Object]map[string]bool)

	// isLoad reports whether e is a call to (*sync/atomic.Pointer[T]).Load.
	isLoad := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn == nil || fn.Name() != "Load" {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return false
		}
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Name() == "Pointer" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
	}

	// taintedExpr reports whether e derives from a Load result without
	// passing through a function call.
	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return tainted[pass.TypesInfo.ObjectOf(e)]
		case *ast.SelectorExpr:
			// A selection through a tainted base stays tainted, and so does
			// a shared field of an untainted one; a qualified package
			// identifier never is.
			if id, ok := e.X.(*ast.Ident); ok && shared[pass.TypesInfo.ObjectOf(id)][e.Sel.Name] {
				return true
			}
			return taintedExpr(e.X)
		case *ast.IndexExpr:
			return taintedExpr(e.X)
		case *ast.ParenExpr:
			return taintedExpr(e.X)
		case *ast.StarExpr:
			return taintedExpr(e.X)
		case *ast.UnaryExpr:
			return e.Op == token.AND && taintedExpr(e.X)
		case *ast.TypeAssertExpr:
			return taintedExpr(e.X)
		case *ast.CallExpr:
			return isLoad(e)
		}
		return false
	}

	// share marks field of obj as holding a loaded value and reports
	// whether that is news.
	share := func(obj types.Object, field string) bool {
		if obj == nil || tainted[obj] || shared[obj][field] {
			return false
		}
		if shared[obj] == nil {
			shared[obj] = make(map[string]bool)
		}
		shared[obj][field] = true
		return true
	}
	// shareLit marks the fields of obj that a struct literal (or its
	// address) initializes from a loaded value, and reports whether any was
	// news.
	shareLit := func(obj types.Object, e ast.Expr) bool {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		lit, ok := e.(*ast.CompositeLit)
		if !ok {
			return false
		}
		if _, ok := pass.TypesInfo.TypeOf(lit).Underlying().(*types.Struct); !ok {
			return false
		}
		changed := false
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && taintedExpr(kv.Value) && share(obj, key.Name) {
				changed = true
			}
		}
		return changed
	}

	// Pass 1: propagate taint through assignments to a fixed point, so
	// `d := p.Load(); ads := d.ads` taints both d and ads regardless of
	// statement order encountered during the walk.
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							// nd.users = d.users shares a sub-table.
							if id, ok := sel.X.(*ast.Ident); ok && taintedExpr(n.Rhs[i]) && share(pass.TypesInfo.ObjectOf(id), sel.Sel.Name) {
								changed = true
							}
							continue
						}
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := pass.TypesInfo.ObjectOf(id)
						if obj != nil && !tainted[obj] && taintedExpr(n.Rhs[i]) {
							tainted[obj] = true
							changed = true
						}
						if shareLit(obj, n.Rhs[i]) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, id := range n.Names {
						obj := pass.TypesInfo.ObjectOf(id)
						if obj != nil && !tainted[obj] && taintedExpr(n.Values[i]) {
							tainted[obj] = true
							changed = true
						}
						if shareLit(obj, n.Values[i]) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				// for k, v := range d.m — v aliases tainted map/slice values.
				if n.Tok == token.DEFINE && taintedExpr(n.X) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							obj := pass.TypesInfo.ObjectOf(id)
							if obj != nil && !tainted[obj] {
								tainted[obj] = true
								changed = true
							}
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	report := func(pos token.Pos, format string, args ...any) {
		if sup.Allowed(name, pos) {
			return
		}
		pass.Reportf(pos, "cowmut: %s", fmt.Sprintf(format, args...))
	}

	// mutationTarget reports whether writing to lhs mutates a loaded
	// snapshot. Reassigning the snapshot variable itself (d = ...) is fine;
	// writing through it (d.f = ..., d.m[k] = ..., *d = ...) is not.
	mutationTarget := func(lhs ast.Expr) bool {
		switch lhs := lhs.(type) {
		case *ast.SelectorExpr:
			return taintedExpr(lhs.X)
		case *ast.IndexExpr:
			return taintedExpr(lhs.X)
		case *ast.StarExpr:
			return taintedExpr(lhs.X)
		}
		return false
	}

	// Pass 2: report mutations.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if mutationTarget(lhs) {
					report(lhs.Pos(), "write to copy-on-write snapshot loaded from atomic.Pointer; clone it, mutate the copy, and Store the result")
				}
			}
		case *ast.IncDecStmt:
			if mutationTarget(n.X) {
				report(n.X.Pos(), "increment of copy-on-write snapshot loaded from atomic.Pointer; clone it, mutate the copy, and Store the result")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") {
				if pass.TypesInfo.ObjectOf(id) == nil || pass.TypesInfo.ObjectOf(id).Pkg() == nil { // builtin
					if len(n.Args) > 0 && taintedExpr(n.Args[0]) {
						report(n.Pos(), "%s on map owned by a copy-on-write snapshot loaded from atomic.Pointer", id.Name)
					}
				}
			}
		}
		return true
	})
}
