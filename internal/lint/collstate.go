package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"gompi/internal/lint/analysis"
	"gompi/internal/lint/flow"
)

// CollState enforces the startable-request lifecycle shared by persistent
// point-to-point requests, persistent collectives and partitioned requests
// (mpi/startable.go) — any handle whose method set has Start() error, Wait,
// and Free() error. Three misuses are reported: starting a request that was
// declared zero-valued and never assigned a *Init result, starting an
// active round again without an intervening Wait/Test, and freeing a
// request while a round is active.
// Requests reaching the call through struct fields or other functions are
// out of scope (no false positives, no report); tests that deliberately
// probe ErrActive can annotate with //gompilint:ignore collstate.
var CollState = &analysis.Analyzer{
	Name: "collstate",
	Doc:  "reports Start of an uninitialized persistent/partitioned request, double Start, and Free while a round is active",
	Run:  runCollState,
}

type collPhase int

const (
	collUninit  collPhase = iota // declared zero-valued, never assigned
	collIdle                     // initialized, no active round
	collStarted                  // Start seen, no Wait/Test since
)

// collVar is the tracked state of one request variable; pos is the
// declaration (uninit) or the Start (started) the state came from.
type collVar struct {
	phase collPhase
	pos   token.Pos
}

type collState map[*types.Var]collVar

// isStartableType reports whether t is a startable request handle: a named
// type (or pointer to one) whose method set has Start() error, Free()
// error, and Wait with a trailing error result. This covers
// *mpi.PersistentRequest, *mpi.PersistentColl and *mpi.PartitionedRequest.
func isStartableType(t types.Type) bool {
	if t == nil || namedOf(t) == nil {
		return false
	}
	if !nullaryErrorMethod(t, "Start") || !nullaryErrorMethod(t, "Free") {
		return false
	}
	wait := lookupMethod(t, "Wait")
	if wait == nil {
		return false
	}
	sig, ok := wait.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() == 0 {
		return false
	}
	return types.Identical(sig.Results().At(sig.Results().Len()-1).Type(), errorType)
}

// nullaryErrorMethod reports whether t has a method name() error.
func nullaryErrorMethod(t types.Type, name string) bool {
	fn := lookupMethod(t, name)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), errorType)
}

func runCollState(pass *analysis.Pass) error {
	ops := flow.Ops[collState]{
		Clone: func(st collState) collState {
			out := make(collState, len(st))
			for k, v := range st {
				out[k] = v
			}
			return out
		},
		// Merge is deliberately forgiving: when two paths disagree about a
		// variable (started on one, idle on the other) it drops to idle, so
		// only misuses certain on every fall-through path are reported.
		Merge: func(a, b collState) collState {
			for k, bv := range b {
				if av, ok := a[k]; !ok || av.phase != bv.phase {
					a[k] = collVar{phase: collIdle}
				}
			}
			for k, av := range a {
				if _, ok := b[k]; !ok && av.phase != collIdle {
					a[k] = collVar{phase: collIdle}
				}
			}
			return a
		},
		Exec: func(n ast.Node, deferred bool, st collState) collState {
			return execCollState(pass, n, deferred, st)
		},
	}
	funcBodies(pass, func(name string, body *ast.BlockStmt) {
		flow.Walk(body, ops, make(collState))
	})
	return nil
}

func execCollState(pass *analysis.Pass, n ast.Node, deferred bool, st collState) collState {
	if deferred {
		// A deferred Wait/Free runs at function exit, after every Start on
		// this path has (presumably) been waited for; judging it here would
		// be wrong more often than right.
		return st
	}
	info := pass.TypesInfo

	// Zero-value declarations introduce uninitialized requests.
	if ds, ok := n.(*ast.DeclStmt); ok {
		if gd, ok := ds.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					if v := localVarOf(info, name); v != nil && isStartableType(v.Type()) {
						st[v] = collVar{phase: collUninit, pos: name.Pos()}
					}
				}
			}
		}
		return st
	}

	// Assignments and address-taking re-initialize: the variable may now
	// hold anything, so drop what we knew.
	for id := range writtenIdents(n) {
		if v := localVarOf(info, id); v != nil {
			if _, ok := st[v]; ok {
				st[v] = collVar{phase: collIdle}
			}
		}
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		u, ok := sub.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return true
		}
		if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
			if v := localVarOf(info, id); v != nil {
				if _, tracked := st[v]; tracked {
					st[v] = collVar{phase: collIdle}
				}
			}
		}
		return true
	})

	// Method calls drive the state machine. Function literal bodies run on
	// their own timeline (funcBodies walks them independently).
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !isStartableType(sig.Recv().Type()) {
			return true
		}
		id := recvIdentOf(call)
		if id == nil {
			return true
		}
		v := localVarOf(info, id)
		if v == nil {
			return true
		}
		cur, tracked := st[v]
		switch fn.Name() {
		case "Start":
			switch {
			case tracked && cur.phase == collUninit:
				pass.Reportf(id.Pos(), "%s started before initialization: declared at line %d and never assigned a *Init result",
					id.Name, pass.Fset.Position(cur.pos).Line)
				st[v] = collVar{phase: collIdle}
			case tracked && cur.phase == collStarted:
				pass.Reportf(id.Pos(), "%s started twice: no Wait/Test since the Start at line %d",
					id.Name, pass.Fset.Position(cur.pos).Line)
				st[v] = collVar{phase: collStarted, pos: id.Pos()}
			default:
				st[v] = collVar{phase: collStarted, pos: id.Pos()}
			}
		case "Wait", "Test":
			st[v] = collVar{phase: collIdle}
		case "Free":
			if tracked && cur.phase == collStarted {
				pass.Reportf(id.Pos(), "%s freed while a round is active: no Wait/Test since the Start at line %d",
					id.Name, pass.Fset.Position(cur.pos).Line)
			}
			st[v] = collVar{phase: collIdle}
		}
		return true
	})
	return st
}
