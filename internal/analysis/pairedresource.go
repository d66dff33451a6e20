package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PairedResource enforces hwstar's paired lifecycles, lostcancel-style:
// a trace.Span that is Started or Child-ed must reach End, a granted
// mem.Reservation must reach Release, and a mem.Lease from NewLease must
// reach Release. An un-Ended span corrupts the trace tree's attribution;
// an unreleased reservation leaks budget until the governor wedges every
// later query into ErrMemoryPressure; an unreleased lease never hands its
// pooled columns back, so every later request allocates afresh. The store
// has no handle to pair: every file it writes or reads opens and closes
// inside one function.
//
// The check is intraprocedural and deliberately conservative: a resource
// that escapes the function — returned, stored in a struct or slice,
// passed to another call — is assumed to transfer ownership and is skipped.
// For locals it reports two defects:
//
//   - no End/Release call at all, and
//   - a release that only happens late in the straight-line body while an
//     early `return` sits between acquisition and release: the error path
//     leaks. `defer` is the fix the message suggests.
var PairedResource = &Analyzer{
	Name: "pairedresource",
	Doc:  "trace.Span reaches End and mem.Reservation reaches Release on every path",
	Run:  runPairedResource,
}

type resourceKind struct {
	pkg, typ, release string
}

var pairedResources = []resourceKind{
	{"hwstar/internal/trace", "Span", "End"},
	{"hwstar/internal/mem", "Reservation", "Release"},
	{"hwstar/internal/mem", "Lease", "Release"},
	// The PR 9 handles: a Router owns reaper and hedge goroutines, a Server
	// owns its worker pool — an un-Closed one leaks the whole crew.
	{"hwstar/internal/shard", "Router", "Close"},
	{"hwstar/internal/serve", "Server", "Close"},
	// The stdlib pair behind the hedged-dispatch timer: an un-Stopped Timer
	// or Ticker pins its runtime timer (and for Ticker, fires forever).
	{"time", "Ticker", "Stop"},
	{"time", "Timer", "Stop"},
}

// resourceFor skips kinds implemented by the package under analysis: trace
// manipulates raw Spans freely, shard wires Router internals — but each is
// still held to the *other* packages' pairs.
func resourceFor(t types.Type, inPkg string) (resourceKind, bool) {
	for _, rk := range pairedResources {
		if rk.pkg == inPkg {
			continue
		}
		if NamedType(t, rk.pkg, rk.typ) {
			return rk, true
		}
	}
	return resourceKind{}, false
}

func runPairedResource(pass *Pass) error {
	if !PathHasPrefix(pass.Path, "hwstar") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPairedIn(pass, n.Body)
				}
			case *ast.FuncLit:
				checkPairedIn(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// creatingNames are the method and function names that mint a tracked
// resource; every other producer of a resource-typed value is a borrow.
var creatingNames = map[string]bool{
	"Start": true, "Child": true, "Reserve": true, "NewLease": true,
	// shard.New / serve.New mint a Router / Server; NewRouter is the
	// facade alias. The name filter is loose (every package has a New) —
	// the type filter in resourceFor does the real gating.
	"New": true, "NewRouter": true,
	"NewTicker": true, "NewTimer": true,
}

func isCreatingCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return creatingNames[fun.Sel.Name]
	case *ast.Ident:
		return creatingNames[fun.Name]
	}
	return false
}

type acquisition struct {
	obj  types.Object
	kind resourceKind
	pos  token.Pos
	// errObj is the error assigned alongside the resource, when the minting
	// call returns (T, error): a return inside that error's `!= nil` guard
	// is the acquisition-failure path, where the handle is nil and there is
	// nothing to release.
	errObj types.Object
}

// checkPairedIn analyzes one function body. Nested function literals are
// analyzed separately (runPairedResource visits them too); here they matter
// only as capture sites.
func checkPairedIn(pass *Pass, body *ast.BlockStmt) {
	// Find acquisitions: `v := expr` / `v, err := expr` where the assigned
	// value's static type is a tracked resource.
	var acqs []acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		// Only *creating* calls acquire: Start/Child mint a span, Reserve
		// grants a reservation. A define from anything else (FromContext,
		// a getter, another variable) borrows a resource someone else owns.
		if len(as.Rhs) != 1 || !isCreatingCall(as.Rhs[0]) {
			return true
		}
		var errObj types.Object
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.ObjectOf(id); obj != nil && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
					errObj = obj
				}
			}
		}
		for _, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				continue
			}
			if kind, ok := resourceFor(obj.Type(), pass.Path); ok {
				acqs = append(acqs, acquisition{obj: obj, kind: kind, pos: id.Pos(), errObj: errObj})
			}
		}
		return true
	})
	for _, acq := range acqs {
		checkAcquisition(pass, body, acq)
	}
}

func checkAcquisition(pass *Pass, body *ast.BlockStmt, acq acquisition) {
	var (
		escapes      bool
		releases     []token.Pos
		hasDefer     bool
		returnsAfter []token.Pos
	)
	// isUse reports whether expr is exactly our variable.
	isUse := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.ObjectOf(id)
		return obj == acq.obj
	}
	// A use as the receiver of the release method is the pairing; as a
	// receiver of any other method it is neutral (AddCycles, SetAttr,
	// Charge); any other appearance is an escape.
	// isErrGuard recognizes `if err != nil` over the acquisition's own
	// error: returns under it are the failure path, where the handle was
	// never minted.
	isErrGuard := func(cond ast.Expr) bool {
		if acq.errObj == nil {
			return false
		}
		guard := false
		ast.Inspect(cond, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.NEQ {
				return true
			}
			x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
			if yid, ok := y.(*ast.Ident); ok && yid.Name == "nil" {
				if xid, ok := x.(*ast.Ident); ok && pass.ObjectOf(xid) == acq.errObj {
					guard = true
				}
			}
			return true
		})
		return guard
	}
	var walk func(n ast.Node, inDefer, inFuncLit, inErrGuard bool)
	walk = func(n ast.Node, inDefer, inFuncLit, inErrGuard bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				walk(m.Call, true, inFuncLit, inErrGuard)
				return false
			case *ast.FuncLit:
				// The literal's body runs at an unknown time; a release
				// inside a *deferred* literal still pairs. Any other use
				// inside a literal is treated as an escape.
				walk(m.Body, inDefer, true, inErrGuard)
				return false
			case *ast.IfStmt:
				if isErrGuard(m.Cond) {
					if m.Init != nil {
						walk(m.Init, inDefer, inFuncLit, inErrGuard)
					}
					walk(m.Body, inDefer, inFuncLit, true)
					if m.Else != nil {
						walk(m.Else, inDefer, inFuncLit, inErrGuard)
					}
					return false
				}
				return true
			case *ast.ReturnStmt:
				if !inFuncLit && !inErrGuard && m.Pos() > acq.pos {
					returnsAfter = append(returnsAfter, m.Pos())
				}
				for _, r := range m.Results {
					if isUse(r) {
						escapes = true
					}
				}
				// Still inspect children for calls like `return f(v)`.
				return true
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && isUse(sel.X) {
					if sel.Sel.Name == acq.kind.release {
						releases = append(releases, m.Pos())
						if inDefer {
							hasDefer = true
						}
					}
					// Receiver use: walk only the arguments.
					for _, a := range m.Args {
						walk(a, inDefer, inFuncLit, inErrGuard)
					}
					return false
				}
				for _, a := range m.Args {
					if isUse(a) {
						escapes = true
					}
				}
				return true
			case *ast.AssignStmt:
				// v on an RHS (aliasing/storing) escapes; v reassigned on
				// the LHS makes tracking unsound, treat as escape too.
				for _, r := range m.Rhs {
					if isUse(r) {
						escapes = true
					}
				}
				for _, l := range m.Lhs {
					if l.Pos() != acq.pos && isUse(l) {
						escapes = true
					}
				}
				return true
			case *ast.CompositeLit:
				for _, el := range m.Elts {
					e := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if isUse(e) {
						escapes = true
					}
				}
				return true
			case *ast.SendStmt:
				if isUse(m.Value) {
					escapes = true
				}
				return true
			case *ast.IndexExpr:
				// v used as a map/slice index is neutral; v being indexed
				// cannot happen for these pointer types.
				return true
			}
			return true
		})
	}
	walk(body, false, false, false)
	if escapes {
		return
	}
	short := acq.kind.typ + "." + acq.kind.release
	if len(releases) == 0 {
		pass.Reportf(acq.pos,
			"%s acquired here never reaches %s: the %s leaks on every path",
			acq.obj.Name(), short, acq.kind.typ)
		return
	}
	if hasDefer {
		return
	}
	first := releases[0]
	for _, r := range releases[1:] {
		if r < first {
			first = r
		}
	}
	for _, ret := range returnsAfter {
		if ret < first {
			pass.Reportf(acq.pos,
				"%s does not reach %s on the early-return path at line %d: defer the release",
				acq.obj.Name(), short, pass.Fset.Position(ret).Line)
			return
		}
	}
}
