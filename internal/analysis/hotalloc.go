package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc polices the morsel-processing packages (hotAllocScope) for
// per-iteration interface boxing. The keynote's discipline is that the
// inner loop tracks the hardware: a fmt.Sprintf per partition (or
// worse, per row) boxes its operands onto the heap, and the allocation +
// format-parse cost dwarfs the arithmetic the loop exists to do. PR 4's
// presize work bought 1.6x on exactly this class of waste.
//
// Flagged: inside any for/range loop in a hot package, a call whose final
// parameter is variadic ...interface{} receiving at least one non-interface
// argument (fmt.Sprintf, fmt.Errorf, Span.Annotate, log.Printf, ...).
//
// Exempt: calls that terminate the loop — the whole call is an argument to
// panic, part of a return statement, or in a block that ends by breaking out
// of the loop (the scheduler's `runErr = fmt.Errorf(...); break` fault
// paths) — because they run at most once.
// Function literals *defined* in a loop are analyzed on their own schedule,
// not the loop's: a task body built per partition runs once per task, and
// its own loops are checked when the literal is visited.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no interface-boxing calls (fmt and friends) inside loops in scan/join/agg/hashtab/vecexec/serve/compress/shard/sched/frontend/v1",
	Run:  runHotAlloc,
}

// serve joined the scope when the vectorized scan moved batch execution into
// it: runBatch's result loop and vecScanMorsel's block loop are now as hot
// as anything in scan. compress and shard joined with the PR 8/9 tiers —
// the block codecs run per-block inside every vectorized scan, and the
// router's dispatch loop sits on every request path. sched joined when
// hwperf showed Morsels formatting a name per morsel that only the fault
// paths read: task building and the dispatch loop run per request. hashtab
// and frontend/v1 joined with the pooled table and the append encoder: the
// table's loops are join's and agg's inner loops moved, and the encoder's
// group loop runs once per group of every group-sum answer (v1's decoder
// loops ride along — they run once per element of every inline column).
var hotAllocScope = []string{
	"hwstar/internal/scan",
	"hwstar/internal/join",
	"hwstar/internal/agg",
	"hwstar/internal/vecexec",
	"hwstar/internal/serve",
	"hwstar/internal/compress",
	"hwstar/internal/shard",
	"hwstar/internal/sched",
	"hwstar/internal/hashtab",
	"hwstar/internal/frontend/v1",
}

func runHotAlloc(pass *Pass) error {
	inScope := false
	for _, p := range hotAllocScope {
		if PathHasPrefix(pass.Path, p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				hotWalk(pass, fd.Body, 0, false, false)
			}
		}
	}
	return nil
}

// hotWalk tracks loop depth and whether the current expression terminates
// the iteration (return/panic/break), descending into function literals with
// a fresh loop depth. breaks says an unlabeled break here leaves the
// innermost loop, not a switch or select inside it.
func hotWalk(pass *Pass, n ast.Node, loopDepth int, terminal, breaks bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt:
			// Init runs once; Cond and Post run per iteration.
			hotWalk(pass, m.Init, loopDepth, false, false)
			hotWalk(pass, m.Cond, loopDepth+1, false, false)
			hotWalk(pass, m.Post, loopDepth+1, false, false)
			hotWalk(pass, m.Body, loopDepth+1, false, true)
			return false
		case *ast.RangeStmt:
			hotWalk(pass, m.X, loopDepth, false, false)
			hotWalk(pass, m.Body, loopDepth+1, false, true)
			return false
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if breaks { // a break in here leaves the switch, not the loop
				hotWalk(pass, m, loopDepth, terminal, false)
				return false
			}
			return true
		case *ast.BlockStmt:
			if breaks && !terminal && endsInBreak(m) {
				for _, st := range m.List {
					hotWalk(pass, st, loopDepth, true, true)
				}
				return false
			}
			return true
		case *ast.FuncLit:
			hotWalk(pass, m.Body, 0, false, false)
			return false
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				hotWalk(pass, r, loopDepth, true, breaks)
			}
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "panic" && pass.ObjectOf(id) == types.Universe.Lookup("panic") {
				for _, a := range m.Args {
					hotWalk(pass, a, loopDepth, true, breaks)
				}
				return false
			}
			if loopDepth > 0 && !terminal {
				checkBoxingCall(pass, m, loopDepth)
			}
			return true
		}
		return true
	})
}

// endsInBreak reports whether b's last statement is an unlabeled break.
func endsInBreak(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	br, ok := b.List[len(b.List)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.BREAK && br.Label == nil
}

func checkBoxingCall(pass *Pass, call *ast.CallExpr, depth int) {
	sig, ok := types.Unalias(pass.TypeOf(call.Fun)).(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() {
		return
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().(*types.Slice)
	if !ok {
		return
	}
	iface, ok := types.Unalias(slice.Elem()).Underlying().(*types.Interface)
	if !ok || !iface.Empty() {
		return
	}
	fixed := sig.Params().Len() - 1
	for i := fixed; i < len(call.Args); i++ {
		t := pass.TypeOf(call.Args[i])
		if t == nil {
			continue
		}
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			name := "call"
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			case *ast.Ident:
				name = fun.Name
			}
			pass.Reportf(call.Pos(),
				"%s boxes its arguments to interface{} inside a loop (depth %d) in a morsel-processing package: hoist it, precompute, or use strconv",
				name, depth)
			return
		}
	}
}
