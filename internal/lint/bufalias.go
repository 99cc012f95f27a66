package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gompi/internal/lint/analysis"
	"gompi/internal/lint/flow"
)

// BufAlias enforces the nonblocking buffer-ownership contract (MPI 4.1
// §3.7, DESIGN.md §6a): between posting an Isend/Irecv (or Start of a
// persistent request bound at *Init time) and completing it with
// Wait/Test, the user buffer belongs to the library. Writing the buffer —
// element store, copy destination, re-posting it as another operation's
// receive buffer — corrupts the transfer in flight; reading a buffer an
// Irecv is still filling returns garbage. Both are reported. Completion
// (Wait/Test on the request, directly or through a helper whose summary
// completes its argument), reassigning the buffer variable, or letting the
// request escape (stored, appended, passed to a summary-less function)
// releases the buffer — flows the analyzer cannot see degrade to silence.
var BufAlias = &analysis.Analyzer{
	Name: "bufalias",
	Doc:  "reports user buffers written (or recv buffers read) between a nonblocking post and its Wait/Test",
	Run:  runBufAlias,
}

// flight is the state of one in-flight (or bound) buffer.
type flight struct {
	req   *types.Var // completing request variable; nil when dropped
	recv  bool       // posted by a receive: reads are unsafe too
	bound bool       // bound to a persistent request, round not started
	verb  string     // the posting call, for diagnostics
	pos   token.Pos
}

// bufState maps buffer variables to their in-flight state. Values are
// small; the map is copied on Clone.
type bufState map[*types.Var]flight

func runBufAlias(pass *analysis.Pass) error {
	g := buildGraph(pass)
	completes := computeCompletesSummaries(pass, g)
	writes := computeWritesSummaries(pass, g)

	ops := flow.Ops[bufState]{
		Clone: func(st bufState) bufState {
			out := make(bufState, len(st))
			for k, v := range st {
				out[k] = v
			}
			return out
		},
		Merge: func(a, b bufState) bufState {
			for k, v := range b {
				if _, ok := a[k]; !ok {
					a[k] = v
				}
			}
			return a
		},
		Exec: func(n ast.Node, deferred bool, st bufState) bufState {
			return execBufAlias(pass, completes, writes, n, deferred, st)
		},
	}
	funcBodies(pass, func(name string, body *ast.BlockStmt) {
		flow.Walk(body, ops, make(bufState))
	})
	return nil
}

// isNonblockingPost classifies a call that starts a nonblocking transfer
// and returns a request: the method name starts with "I" and a request
// value is among the results. recv reports whether the operation fills the
// buffer (name contains "recv").
func isNonblockingPost(info *types.Info, call *ast.CallExpr) (fn *types.Func, recv bool, ok bool) {
	fn = calleeOf(info, call)
	if fn == nil {
		return nil, false, false
	}
	name := fn.Name()
	if !strings.HasPrefix(name, "I") || requestResults(info, call) == nil {
		return nil, false, false
	}
	return fn, strings.Contains(strings.ToLower(name), "recv"), true
}

// isPersistentInit classifies a *Init call binding buffers to a startable
// request (SendInit/RecvInit/PsendInit/PrecvInit/BcastInit, ...).
func isPersistentInit(info *types.Info, call *ast.CallExpr) (fn *types.Func, recv bool, ok bool) {
	fn = calleeOf(info, call)
	if fn == nil || !strings.HasSuffix(fn.Name(), "Init") {
		return nil, false, false
	}
	tv, found := info.Types[call]
	if !found {
		return nil, false, false
	}
	startable := false
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if hasStartMethod(t.At(i).Type()) {
				startable = true
			}
		}
	default:
		startable = hasStartMethod(t)
	}
	if !startable {
		return nil, false, false
	}
	lower := strings.ToLower(fn.Name())
	return fn, strings.Contains(lower, "recv"), true
}

// hasStartMethod reports whether t has a Start() error method — the
// startable-request shape shared by persistent p2p, persistent collectives,
// and partitioned requests.
func hasStartMethod(t types.Type) bool {
	if namedOf(t) == nil {
		return false
	}
	return nullaryErrorMethod(t, "Start")
}

// bufferArgs returns the byte-slice-typed arguments of call that are plain
// local variables, paired with their identifiers.
func bufferArgs(info *types.Info, call *ast.CallExpr) (vars []*types.Var, idents []*ast.Ident) {
	for _, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		v := localVarOf(info, id)
		if v == nil || !isByteSlice(v.Type()) {
			continue
		}
		vars = append(vars, v)
		idents = append(idents, id)
	}
	return vars, idents
}

func isByteSlice(t types.Type) bool {
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func execBufAlias(pass *analysis.Pass, completes map[*types.Func][]int, writes map[*types.Func][]int, n ast.Node, deferred bool, st bufState) bufState {
	info := pass.TypesInfo
	if deferred {
		// defer r.Wait() runs at exit; judging buffer uses against it here
		// would be wrong more often than right.
		return st
	}

	// resolveCompletes/resolveWrites consult local summaries then facts.
	resolveCompletes := func(fn *types.Func) []int {
		if s, ok := completes[fn]; ok {
			return s
		}
		var fact completesFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Inputs
		}
		return nil
	}
	resolveWrites := func(fn *types.Func) []int {
		if s, ok := writes[fn]; ok {
			return s
		}
		var fact writesFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Inputs
		}
		return nil
	}

	// Pass A: classify this node's calls — posts, completions, escapes —
	// before judging uses, so a post's own buffer argument is not reported
	// as a use and a same-statement Wait still releases first-in-order.
	type post struct {
		bufs  []*types.Var
		req   *types.Var
		recv  bool
		bound bool
		verb  string
		pos   token.Pos
	}
	var posts []post
	postIdents := make(map[*ast.Ident]bool)
	released := make(map[*types.Var]bool) // requests completed in this node
	escaped := make(map[*types.Var]bool)  // requests that escape analysis
	written := make(map[*types.Var]token.Pos)

	// requestVarsOf collects tracked request variables among the in-flight
	// entries, for release/escape matching.
	reqTracked := func(v *types.Var) bool {
		if v == nil {
			return false
		}
		for _, f := range st {
			if f.req == v {
				return true
			}
		}
		return false
	}

	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false // literals run on their own timeline
		}
		switch s := sub.(type) {
		case *ast.AssignStmt:
			// A post assigned to a request variable: r := c.Isend(buf, ...)
			if len(s.Rhs) == 1 {
				if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
					fn, recv, isPost := isNonblockingPost(info, call)
					pfn, precv, isInit := isPersistentInit(info, call)
					if isPost || isInit {
						bufs, ids := bufferArgs(info, call)
						for _, id := range ids {
							postIdents[id] = true
						}
						var reqVar *types.Var
						for _, lhs := range s.Lhs {
							if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
								if v := localVarOf(info, id); v != nil {
									if isRequestType(v.Type()) || hasStartMethod(v.Type()) {
										reqVar = v
										break
									}
								}
							}
						}
						if len(bufs) > 0 {
							p := post{bufs: bufs, req: reqVar}
							if isInit {
								p.bound, p.recv, p.verb = true, precv, pfn.Name()
								p.pos = call.Pos()
							} else {
								p.recv, p.verb = recv, fn.Name()
								p.pos = call.Pos()
							}
							posts = append(posts, p)
						}
					}
				}
			}
		case *ast.ExprStmt:
			// A dropped post still puts the buffer in flight (reqleak
			// reports the dropped request separately).
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if fn, recv, isPost := isNonblockingPost(info, call); isPost {
					bufs, ids := bufferArgs(info, call)
					for _, id := range ids {
						postIdents[id] = true
					}
					if len(bufs) > 0 {
						posts = append(posts, post{bufs: bufs, recv: recv, verb: fn.Name(), pos: call.Pos()})
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeOf(info, s)
			if fn == nil {
				// A call through a function value taking a tracked request:
				// conservative escape.
				for _, arg := range s.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if v := localVarOf(info, id); reqTracked(v) {
							escaped[v] = true
						}
					}
				}
				return true
			}
			// Wait/Test/Free on a tracked request variable.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				switch fn.Name() {
				case "Wait", "Test", "Free":
					if id := recvIdentOf(s); id != nil {
						if v := localVarOf(info, id); reqTracked(v) {
							released[v] = true
							return true
						}
					}
				case "Start":
					// handled against bound persistent requests below, in
					// the state-update pass.
					return true
				}
			}
			// WaitAll-shaped calls and helpers: a summary that completes an
			// input releases it; a summary-less call consuming the request
			// is an escape (degrade to silence).
			vars := callInputVars(pass, s, fn)
			comp := resolveCompletes(fn)
			for _, in := range comp {
				if in < len(vars) && vars[in] != nil && reqTracked(vars[in]) {
					released[vars[in]] = true
				}
			}
			wr := resolveWrites(fn)
			for _, in := range wr {
				if in < len(vars) && vars[in] != nil {
					if _, inFlight := st[vars[in]]; inFlight {
						written[vars[in]] = s.Pos()
					}
				}
			}
			if strings.HasPrefix(fn.Name(), "Wait") && sig(fn).Recv() == nil {
				// WaitAll(reqs...) or similar: every tracked request passed
				// (or any slice of requests) completes conservatively.
				for _, arg := range s.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if v := localVarOf(info, id); reqTracked(v) {
							released[v] = true
						}
					}
				}
			} else {
				for i, v := range vars {
					if v == nil || !reqTracked(v) {
						continue
					}
					isComp := false
					for _, in := range comp {
						if in == i {
							isComp = true
						}
					}
					if !isComp {
						escaped[v] = true
					}
				}
			}
		}
		return true
	})

	// Pass B: writes through in-flight buffers — index stores, copy
	// destinations — and whole-variable reassignment (which releases).
	writesSet := writtenIdents(n)
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		switch s := sub.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				base := indexBase(lhs)
				if base == nil {
					continue
				}
				if v := localVarOf(info, base); v != nil {
					if _, inFlight := st[v]; inFlight {
						written[v] = base.Pos()
					}
				}
			}
		case *ast.CallExpr:
			// copy(buf, src) writes its first argument.
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "copy" && len(s.Args) == 2 {
				if dst, ok := ast.Unparen(s.Args[0]).(*ast.Ident); ok {
					if v := localVarOf(info, dst); v != nil {
						if _, inFlight := st[v]; inFlight {
							written[v] = dst.Pos()
						}
					}
				}
			}
		}
		return true
	})

	// Pass C: report. Writes to any in-flight buffer; reads of in-flight
	// receive buffers; a second post of an in-flight buffer when either
	// side is a receive.
	report := func(v *types.Var, pos token.Pos, what string) {
		f := st[v]
		pass.Reportf(pos, "%s %s while it is in flight: posted by %s (line %d) with no Wait/Test in between",
			v.Name(), what, f.verb, pass.Fset.Position(f.pos).Line)
		delete(st, v) // one report per buffer per path
	}
	for v, pos := range written {
		if f, ok := st[v]; ok && !f.bound {
			report(v, pos, "written")
		}
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		id, ok := sub.(*ast.Ident)
		if !ok || postIdents[id] || writesSet[id] {
			return true
		}
		if insideLenCap(n, id) {
			return true
		}
		v := localVarOf(info, id)
		if v == nil {
			return true
		}
		if f, inFlight := st[v]; inFlight && f.recv && !f.bound {
			if _, wasWritten := written[v]; !wasWritten {
				report(v, id.Pos(), "read")
			}
		}
		return true
	})
	for _, p := range posts {
		for _, b := range p.bufs {
			if f, inFlight := st[b]; inFlight && !f.bound && (f.recv || p.recv) {
				report(b, p.pos, "posted again")
			}
		}
	}

	// Pass D: apply state updates — reassignments release, posts arm,
	// completions and escapes disarm, Start activates bound buffers.
	for id := range writesSet {
		if v := localVarOf(info, id); v != nil {
			delete(st, v)
			// Reassigning a request variable orphans its buffers: degrade
			// to silence rather than guess.
			for b, f := range st {
				if f.req == v {
					delete(st, b)
				}
			}
		}
	}
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
		sigT, ok := fn.Type().(*types.Signature)
		if !ok || sigT.Recv() == nil || fn.Name() != "Start" {
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
		for b, f := range st {
			if f.req == v && f.bound {
				f.bound = false
				f.pos = call.Pos()
				f.verb = "Start of " + v.Name()
				st[b] = f
			}
		}
		return true
	})
	for v := range released {
		for b, f := range st {
			if f.req == v {
				if f.bound {
					continue
				}
				if hasStartMethod(v.Type()) {
					// Persistent: the round completed but the binding
					// persists — back to bound, rearmed by the next Start.
					f.bound = true
					st[b] = f
				} else {
					delete(st, b)
				}
			}
		}
	}
	for v := range escaped {
		for b, f := range st {
			if f.req == v {
				delete(st, b)
			}
		}
	}
	for _, p := range posts {
		for _, b := range p.bufs {
			st[b] = flight{req: p.req, recv: p.recv, bound: p.bound, verb: p.verb, pos: p.pos}
		}
	}
	return st
}

// sig returns fn's signature (never nil for a *types.Func from go/types).
func sig(fn *types.Func) *types.Signature { return fn.Type().(*types.Signature) }

// indexBase returns the identifier at the base of an index or slice
// expression used as an assignment target (buf[i], buf[i:j]), or nil.
func indexBase(e ast.Expr) *ast.Ident {
	switch x := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		id, _ := ast.Unparen(x.X).(*ast.Ident)
		return id
	case *ast.SliceExpr:
		id, _ := ast.Unparen(x.X).(*ast.Ident)
		return id
	}
	return nil
}

// insideLenCap reports whether id appears as the direct argument of a
// len/cap call within n — reading a buffer's length is always safe.
func insideLenCap(n ast.Node, id *ast.Ident) bool {
	safe := false
	ast.Inspect(n, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || (fun.Name != "len" && fun.Name != "cap") {
			return true
		}
		for _, arg := range call.Args {
			if ast.Unparen(arg) == id {
				safe = true
			}
		}
		return true
	})
	return safe
}

// computeCompletesSummaries fixpoints which request-shaped inputs each
// declared function completes (Wait or Test called on the input, directly
// or through a callee) and exports the non-empty summaries as facts.
func computeCompletesSummaries(pass *analysis.Pass, g *flow.Graph) map[*types.Func][]int {
	sums := make(map[*types.Func]map[int]bool, len(g.Funcs))
	for _, node := range g.Funcs {
		s := make(map[int]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			sigT, ok := fn.Type().(*types.Signature)
			if !ok || sigT.Recv() == nil {
				return true
			}
			if fn.Name() != "Wait" && fn.Name() != "Test" {
				return true
			}
			id := recvIdentOf(call)
			if id == nil {
				return true
			}
			v := localVarOf(pass.TypesInfo, id)
			if v == nil {
				return true
			}
			if i := node.InputIndex(v); i >= 0 {
				s[i] = true
			}
			return true
		})
		for _, c := range node.Calls {
			if g.Node(c.Callee) != nil {
				continue
			}
			var fact completesFact
			if pass.ImportObjectFact(c.Callee, &fact) {
				for _, in := range fact.Inputs {
					if in < len(c.Args) && c.Args[in] != nil {
						if i := node.InputIndex(c.Args[in]); i >= 0 {
							s[i] = true
						}
					}
				}
			}
		}
		sums[node.Fn] = s
	}
	g.Fixpoint(func(node *flow.FuncNode) bool {
		s := sums[node.Fn]
		changed := false
		for _, c := range node.Calls {
			if g.Node(c.Callee) == nil {
				continue
			}
			for in := range sums[c.Callee] {
				if in < len(c.Args) && c.Args[in] != nil {
					if i := node.InputIndex(c.Args[in]); i >= 0 && !s[i] {
						s[i] = true
						changed = true
					}
				}
			}
		}
		return changed
	})
	out := make(map[*types.Func][]int, len(sums))
	for fn, s := range sums {
		if len(s) == 0 {
			out[fn] = nil
			continue
		}
		var ins []int
		for i := range s {
			ins = append(ins, i)
		}
		out[fn] = ins
		pass.ExportObjectFact(fn, &completesFact{Inputs: ins})
	}
	return out
}

// computeWritesSummaries fixpoints which byte-slice inputs each declared
// function may write through (index store, copy destination, or passing
// them on to a writing callee) and exports the non-empty summaries.
func computeWritesSummaries(pass *analysis.Pass, g *flow.Graph) map[*types.Func][]int {
	sums := make(map[*types.Func]map[int]bool, len(g.Funcs))
	for _, node := range g.Funcs {
		s := make(map[int]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if base := indexBase(lhs); base != nil {
						if v := localVarOf(pass.TypesInfo, base); v != nil {
							if i := node.InputIndex(v); i >= 0 && isByteSlice(v.Type()) {
								s[i] = true
							}
						}
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "copy" && len(x.Args) == 2 {
					if dst, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok {
						if v := localVarOf(pass.TypesInfo, dst); v != nil {
							if i := node.InputIndex(v); i >= 0 && isByteSlice(v.Type()) {
								s[i] = true
							}
						}
					}
				}
			}
			return true
		})
		for _, c := range node.Calls {
			if g.Node(c.Callee) != nil {
				continue
			}
			var fact writesFact
			if pass.ImportObjectFact(c.Callee, &fact) {
				for _, in := range fact.Inputs {
					if in < len(c.Args) && c.Args[in] != nil {
						if i := node.InputIndex(c.Args[in]); i >= 0 {
							s[i] = true
						}
					}
				}
			}
		}
		sums[node.Fn] = s
	}
	g.Fixpoint(func(node *flow.FuncNode) bool {
		s := sums[node.Fn]
		changed := false
		for _, c := range node.Calls {
			if g.Node(c.Callee) == nil {
				continue
			}
			for in := range sums[c.Callee] {
				if in < len(c.Args) && c.Args[in] != nil {
					if i := node.InputIndex(c.Args[in]); i >= 0 && !s[i] {
						s[i] = true
						changed = true
					}
				}
			}
		}
		return changed
	})
	out := make(map[*types.Func][]int, len(sums))
	for fn, s := range sums {
		if len(s) == 0 {
			out[fn] = nil
			continue
		}
		var ins []int
		for i := range s {
			ins = append(ins, i)
		}
		out[fn] = ins
		pass.ExportObjectFact(fn, &writesFact{Inputs: ins})
	}
	return out
}
