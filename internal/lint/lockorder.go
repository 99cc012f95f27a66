package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"

	"gompi/internal/lint/analysis"
	"gompi/internal/lint/flow"
)

// LockOrder builds a static lock graph over the repo's mutexes and enforces
// the declared partial order. Mutex fields and package-level mutexes join
// the order with a declaration-line annotation:
//
//	regMu sync.Mutex //gompilint:lockorder rank=40
//
// Ranks are global across packages (facts carry them to importers); locks
// must be acquired in strictly increasing rank order, so acquiring a lock
// whose rank is <= the rank of any annotated lock already held is an
// inversion. Re-locking the very same expression (e.regMu then e.regMu) is
// reported for annotated and unannotated mutexes alike. While an annotated
// lock is held, calling a function whose summary (computed per package,
// exported as a fact) may acquire a lock of <= rank is reported too; the
// summary only tracks annotated locks, so unannotated helpers stay silent.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "enforces the declared mutex partial order (//gompilint:lockorder rank=N) and rejects self-deadlocks",
	Run:  runLockOrder,
}

// lockRankFact marks a mutex variable/field with its declared rank.
type lockRankFact struct {
	Rank int
	Name string // qualified name for diagnostics, e.g. "pml.Engine.regMu"
}

func (*lockRankFact) AFact() {}

// acquiresFact summarizes the annotated locks a function may acquire,
// directly or transitively.
type acquiresFact struct {
	Locks []lockAcq
}

func (*acquiresFact) AFact() {}

type lockAcq struct {
	Name string
	Rank int
}

var lockOrderDirective = regexp.MustCompile(`//gompilint:lockorder\s+rank=(\d+)`)

// mutexTypeName classifies sync mutex types; empty string for anything else.
func mutexTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if namedIs(t, "sync", "Mutex") {
		return "Mutex"
	}
	if namedIs(t, "sync", "RWMutex") {
		return "RWMutex"
	}
	return ""
}

// lockCallTarget decodes a call of the form <expr>.Lock() / RLock / Unlock
// / RUnlock where the method belongs to sync.Mutex or sync.RWMutex. It
// returns the lock expression, its resolved variable (field or var; nil if
// the expression is not ident/selector-of-ident shaped), and the method
// name.
func lockCallTarget(info *types.Info, call *ast.CallExpr) (expr ast.Expr, v *types.Var, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil, ""
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, nil, ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || mutexTypeName(sig.Recv().Type()) == "" {
		return nil, nil, ""
	}
	expr = ast.Unparen(sel.X)
	switch x := expr.(type) {
	case *ast.Ident:
		v, _ = info.Uses[x].(*types.Var)
	case *ast.SelectorExpr:
		v, _ = info.Uses[x.Sel].(*types.Var)
	}
	return expr, v, fn.Name()
}

type heldLock struct {
	v    *types.Var
	rank int // -1 when unannotated
	name string
	pos  token.Pos
}

type lockState map[string]heldLock // keyed by the lock expression's source text

func runLockOrder(pass *analysis.Pass) error {
	ranks := collectLockRanks(pass)

	rankOf := func(v *types.Var) (lockRankFact, bool) {
		if v == nil {
			return lockRankFact{}, false
		}
		if f, ok := ranks[v]; ok {
			return f, true
		}
		var fact lockRankFact
		if pass.ImportObjectFact(v, &fact) {
			return fact, true
		}
		return lockRankFact{}, false
	}

	summaries := computeLockSummaries(pass, rankOf)

	// summaryOf resolves the annotated-lock summary of a callee: computed
	// for this package's functions, imported as a fact otherwise.
	summaryOf := func(fn *types.Func) []lockAcq {
		if fn == nil {
			return nil
		}
		if s, ok := summaries[fn]; ok {
			return s
		}
		var fact acquiresFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Locks
		}
		return nil
	}

	ops := flow.Ops[lockState]{
		Clone: func(st lockState) lockState {
			out := make(lockState, len(st))
			for k, v := range st {
				out[k] = v
			}
			return out
		},
		Merge: func(a, b lockState) lockState {
			for k, v := range b {
				if _, ok := a[k]; !ok {
					a[k] = v
				}
			}
			return a
		},
		Exec: func(n ast.Node, deferred bool, st lockState) lockState {
			return execLockOrder(pass, rankOf, summaryOf, n, deferred, st)
		},
	}
	funcBodies(pass, func(name string, body *ast.BlockStmt) {
		flow.Walk(body, ops, make(lockState))
	})
	return nil
}

func execLockOrder(pass *analysis.Pass, rankOf func(*types.Var) (lockRankFact, bool), summaryOf func(*types.Func) []lockAcq, n ast.Node, deferred bool, st lockState) lockState {
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false // literals are walked as their own functions
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		if expr, v, method := lockCallTarget(pass.TypesInfo, call); method != "" {
			key := types.ExprString(expr)
			switch method {
			case "Lock", "RLock":
				if deferred {
					break // defer mu.Lock() is nonsense; don't model it
				}
				if prev, held := st[key]; held {
					pass.Reportf(call.Pos(), "%s locked again while already held (line %d): self-deadlock",
						key, pass.Fset.Position(prev.pos).Line)
					break
				}
				fact, annotated := rankOf(v)
				rank := -1
				name := key
				if annotated {
					rank, name = fact.Rank, fact.Name
				}
				if annotated {
					for _, h := range st {
						if h.rank >= 0 && h.rank >= rank {
							pass.Reportf(call.Pos(), "lock order violation: acquiring %s (rank %d) while holding %s (rank %d, line %d); declared order requires strictly increasing ranks",
								name, rank, h.name, h.rank, pass.Fset.Position(h.pos).Line)
						}
					}
				}
				st[key] = heldLock{v: v, rank: rank, name: name, pos: call.Pos()}
			case "Unlock", "RUnlock":
				if deferred {
					break // releases at function exit: lock stays held below
				}
				delete(st, key)
			}
			return true
		}
		// A plain call while holding an annotated lock: consult the
		// callee's transitive summary.
		fn := calleeOf(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		sum := summaryOf(fn)
		if len(sum) == 0 {
			return true
		}
		for _, h := range st {
			if h.rank < 0 {
				continue
			}
			for _, acq := range sum {
				if acq.Rank <= h.rank {
					pass.Reportf(call.Pos(), "lock order violation: calling %s while holding %s (rank %d, line %d); it may acquire %s (rank %d)",
						fn.Name(), h.name, h.rank, pass.Fset.Position(h.pos).Line, acq.Name, acq.Rank)
				}
			}
		}
		return true
	})
	return st
}

// collectLockRanks finds //gompilint:lockorder annotations on mutex field
// and variable declarations in this package and exports them as facts.
func collectLockRanks(pass *analysis.Pass) map[*types.Var]lockRankFact {
	// Map every source line carrying a lockorder directive to its rank.
	rankAtLine := make(map[string]int) // "file:line" -> rank
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := lockOrderDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				rank, err := strconv.Atoi(m[1])
				if err != nil {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				rankAtLine[fmt.Sprintf("%s:%d", p.Filename, p.Line)] = rank
			}
		}
	}
	ranks := make(map[*types.Var]lockRankFact)
	if len(rankAtLine) == 0 {
		return ranks
	}
	record := func(id *ast.Ident, owner string) {
		v, _ := pass.TypesInfo.Defs[id].(*types.Var)
		if v == nil || mutexTypeName(v.Type()) == "" {
			return
		}
		p := pass.Fset.Position(id.Pos())
		rank, ok := rankAtLine[fmt.Sprintf("%s:%d", p.Filename, p.Line)]
		if !ok {
			return
		}
		name := pass.Pkg.Name() + "." + id.Name
		if owner != "" {
			name = pass.Pkg.Name() + "." + owner + "." + id.Name
		}
		fact := lockRankFact{Rank: rank, Name: name}
		ranks[v] = fact
		pass.ExportObjectFact(v, &fact)
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.TypeSpec:
				if s, ok := d.Type.(*ast.StructType); ok {
					for _, f := range s.Fields.List {
						for _, id := range f.Names {
							record(id, d.Name.Name)
						}
					}
				}
			case *ast.ValueSpec:
				for _, id := range d.Names {
					record(id, "")
				}
			}
			return true
		})
	}
	return ranks
}

// computeLockSummaries fixpoints, within the package, the set of annotated
// locks each declared function may acquire (directly or through calls), and
// exports each non-empty summary as a fact for importing packages.
func computeLockSummaries(pass *analysis.Pass, rankOf func(*types.Var) (lockRankFact, bool)) map[*types.Func][]lockAcq {
	type funcInfo struct {
		direct  map[string]lockAcq
		callees map[*types.Func]bool
	}
	infos := make(map[*types.Func]*funcInfo)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			fi := &funcInfo{direct: map[string]lockAcq{}, callees: map[*types.Func]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // a literal's locks run on its own schedule
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, v, method := lockCallTarget(pass.TypesInfo, call); method == "Lock" || method == "RLock" {
					if fact, annotated := rankOf(v); annotated {
						fi.direct[fact.Name] = lockAcq{Name: fact.Name, Rank: fact.Rank}
					}
					return true
				}
				if callee := calleeOf(pass.TypesInfo, call); callee != nil {
					fi.callees[callee] = true
				}
				return true
			})
			infos[fn] = fi
		}
	}

	// Seed with direct acquisitions plus imported cross-package facts,
	// then fixpoint over intra-package calls.
	summaries := make(map[*types.Func]map[string]lockAcq)
	for fn, fi := range infos {
		s := make(map[string]lockAcq, len(fi.direct))
		for k, v := range fi.direct {
			s[k] = v
		}
		for callee := range fi.callees {
			if _, local := infos[callee]; local {
				continue
			}
			var fact acquiresFact
			if pass.ImportObjectFact(callee, &fact) {
				for _, acq := range fact.Locks {
					s[acq.Name] = acq
				}
			}
		}
		summaries[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, fi := range infos {
			s := summaries[fn]
			for callee := range fi.callees {
				for _, acq := range summaries[callee] {
					if _, ok := s[acq.Name]; !ok {
						s[acq.Name] = acq
						changed = true
					}
				}
			}
		}
	}

	out := make(map[*types.Func][]lockAcq, len(summaries))
	for fn, s := range summaries {
		var locks []lockAcq
		for _, acq := range s {
			locks = append(locks, acq)
		}
		out[fn] = locks
		if len(locks) > 0 {
			pass.ExportObjectFact(fn, &acquiresFact{Locks: locks})
		}
	}
	return out
}
