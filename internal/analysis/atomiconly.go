package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicOnly enforces all-or-nothing atomicity per location: a variable or
// struct field whose address is ever passed to a sync/atomic function
// (atomic.AddInt64, atomic.LoadUint64, atomic.CompareAndSwapInt32, ...)
// must be accessed through sync/atomic everywhere. A plain read beside an
// atomic write is not "slightly racy": the compiler and the hardware are
// both free to tear, cache, or reorder the plain access, and the race
// detector only catches the interleavings a test happens to schedule. The
// mixed-access bug is silent by construction — the shard latency buckets and the vec
// controller's hot-path knobs are exactly the fields where a torn read
// becomes a wrong routing or tuning decision with no crash to point at it.
//
// The typed atomics (atomic.Int64, atomic.Uint64, atomic.Bool, ...) make
// mixed access unrepresentable and are the preferred fix; this analyzer
// polices the legacy function form, where the type system cannot.
//
// Exempt: the field's appearance as a composite-literal key (zero/initial
// value set before the value is published to any other goroutine).
var AtomicOnly = &Analyzer{
	Name: "atomiconly",
	Doc:  "a location accessed via sync/atomic anywhere is accessed atomically everywhere",
	Run:  runAtomicOnly,
}

func runAtomicOnly(pass *Pass) error {
	if !PathHasPrefix(pass.Path, "hwstar") {
		return nil
	}
	// Pass 1: find every &x handed to a sync/atomic function. atomicAt
	// remembers one witness site per object for the message; sanctioned
	// marks the identifiers inside those arguments as atomic uses.
	atomicAt := map[types.Object]token.Position{}
	sanctioned := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Callee(call).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // typed atomics are safe by construction
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				obj, id := addressedObj(pass, u.X)
				if obj == nil {
					continue
				}
				if _, seen := atomicAt[obj]; !seen {
					atomicAt[obj] = pass.Fset.Position(call.Pos())
				}
				sanctioned[id.Pos()] = true
			}
			return true
		})
	}
	if len(atomicAt) == 0 {
		return nil
	}
	// Pass 2: every other appearance of those objects is a plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if cl, ok := n.(*ast.CompositeLit); ok {
				// Field keys in a literal initialize the value before
				// publication; mark them sanctioned, keep walking values.
				for _, el := range cl.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							sanctioned[id.Pos()] = true
						}
					}
				}
				return true
			}
			id, ok := n.(*ast.Ident)
			if !ok || sanctioned[id.Pos()] {
				return true
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				return true
			}
			if at, isAtomic := atomicAt[obj]; isAtomic {
				if obj.Pos() == id.Pos() {
					return true // the declaration itself
				}
				pass.Reportf(id.Pos(),
					"%s is accessed with sync/atomic at %s:%d but plainly here: mixed atomic/plain access is a silent data race — use sync/atomic (or a typed atomic) everywhere",
					obj.Name(), shortFile(at.Filename), at.Line)
			}
			return true
		})
	}
	return nil
}

// addressedObj resolves the operand of an & argument to the object it
// names — a variable or a struct field via selector — plus the identifier
// whose position marks this sanctioned use.
func addressedObj(pass *Pass, e ast.Expr) (types.Object, *ast.Ident) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.ObjectOf(e), e
	case *ast.SelectorExpr:
		return pass.ObjectOf(e.Sel), e.Sel
	case *ast.IndexExpr:
		// &xs[i]: atomic access to a slice element; identity is the slice.
		return addressedObj(pass, e.X)
	}
	return nil, nil
}

func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
