package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a per-package lock-acquisition order graph from every
// sync.Mutex / sync.RWMutex call site and reports any cycle in it. This is
// McKenney's classic rule made structural: a package may nest its locks any
// way it likes, as long as the nesting induces a partial order — the moment
// two lock classes are each acquired while the other is held (on any pair
// of code paths, even ones never yet executed together), a deadlock is
// constructible, and no test is guaranteed to find it before production
// does. The serving tiers stacked since PR 5 (the router's breaker locks,
// serve's intake and core-pool locks, the mem governor's
// reservation/governor pair, the store's checkpoint/state pair) each hold
// such an order by hand today; this analyzer holds it by machine.
//
// Locks are identified by class, not instance: the field path
// "Owner.field" (Reservation.mu, Governor.mu) or the package-level
// variable name. Acquisitions are tracked lexically within each function
// (a deferred Unlock holds to function end), and one level of the package
// call graph is folded in: calling a same-package function that may
// acquire B while holding A draws the edge A -> B just as a direct nested
// Lock does. Locks of the same class are never edged to themselves —
// instance identity is beyond static scope, and same-class hierarchies
// (two breakers, two shards) are ordered by the caller.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the per-package lock-acquisition graph (serve/shard/mem/store/frontend/breaker) is cycle-free",
	Run:  runLockOrder,
}

var lockOrderScope = []string{
	"hwstar/internal/serve",
	"hwstar/internal/shard",
	"hwstar/internal/mem",
	"hwstar/internal/store",
	"hwstar/internal/frontend",
	"hwstar/internal/breaker",
}

// lockEvent is one mutex operation or same-package call, in lexical order.
type lockEvent struct {
	pos token.Pos
	// exactly one of:
	lock   string       // key acquired
	unlock string       // key released (non-deferred only; a deferred release holds to end)
	callee types.Object // same-package function called
}

// lockEdge records the earliest witness of "to acquired while from held".
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee name when the edge crosses a call, else ""
}

func runLockOrder(pass *Pass) error {
	inScope := false
	for _, p := range lockOrderScope {
		if PathHasPrefix(pass.Path, p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}

	bodies := collectFuncBodies(pass)

	// Per analysis unit (function declaration or function literal): the
	// lexical event stream.
	var units []lockUnit
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			collectLockUnits(pass, fd.Body, pass.Info.Defs[fd.Name], &units)
		}
	}

	// May-acquire sets: fixed point over the package call graph.
	direct := map[types.Object]map[string]bool{}
	calls := map[types.Object][]types.Object{}
	for _, u := range units {
		if u.owner == nil {
			continue // literals run on their own schedule; not call-graph nodes
		}
		if direct[u.owner] == nil {
			direct[u.owner] = map[string]bool{}
		}
		for _, ev := range u.events {
			if ev.lock != "" {
				direct[u.owner][ev.lock] = true
			}
			if ev.callee != nil {
				if _, known := bodies[ev.callee]; known {
					calls[u.owner] = append(calls[u.owner], ev.callee)
				}
			}
		}
	}
	mayAcquire := map[types.Object]map[string]bool{}
	for fn, d := range direct {
		mayAcquire[fn] = map[string]bool{}
		for k := range d {
			mayAcquire[fn][k] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range calls {
			if mayAcquire[fn] == nil {
				mayAcquire[fn] = map[string]bool{}
			}
			for _, g := range cs {
				for k := range mayAcquire[g] {
					if !mayAcquire[fn][k] {
						mayAcquire[fn][k] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge construction: replay each unit's lexical stream.
	edges := map[[2]string]lockEdge{}
	addEdge := func(from, to string, pos token.Pos, via string) {
		if from == to {
			return
		}
		key := [2]string{from, to}
		if e, ok := edges[key]; !ok || pos < e.pos {
			edges[key] = lockEdge{from: from, to: to, pos: pos, via: via}
		}
	}
	for _, u := range units {
		held := map[string]bool{}
		for _, ev := range u.events {
			switch {
			case ev.lock != "":
				for h := range held {
					addEdge(h, ev.lock, ev.pos, "")
				}
				held[ev.lock] = true
			case ev.unlock != "":
				delete(held, ev.unlock)
			case ev.callee != nil:
				if len(held) == 0 {
					continue
				}
				for k := range mayAcquire[ev.callee] {
					for h := range held {
						addEdge(h, k, ev.pos, ev.callee.Name())
					}
				}
			}
		}
	}

	// Cycle detection: a node set where every node reaches every other
	// (strongly connected component of size >= 2) is a constructible
	// deadlock. Report every edge inside such a component.
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	comp := sccOf(nodes, adj)
	var bad []lockEdge
	for _, e := range edges {
		if comp[e.from] == comp[e.to] && compSize(comp, e.from) > 1 {
			bad = append(bad, e)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].pos < bad[j].pos })
	for _, e := range bad {
		cycle := cycleString(comp, e.from)
		if e.via != "" {
			pass.Reportf(e.pos,
				"calling %s (which may acquire %s) while holding %s completes a lock-order cycle (%s): a deadlock is constructible",
				e.via, e.to, e.from, cycle)
		} else {
			pass.Reportf(e.pos,
				"acquiring %s while holding %s completes a lock-order cycle (%s): a deadlock is constructible",
				e.to, e.from, cycle)
		}
	}
	return nil
}

// collectLockUnits walks one function body, appending its lexical event
// stream; nested function literals become their own units (their bodies run
// on an unknown schedule), except literals called by a defer, whose lock
// operations belong to the enclosing function's cleanup.
func collectLockUnits(pass *Pass, body *ast.BlockStmt, owner types.Object, out *[]lockUnit) {
	var events []lockEvent
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, true)
				} else {
					walk(m.Call, true)
				}
				return false
			case *ast.FuncLit:
				collectLockUnits(pass, m.Body, nil, out)
				return false
			case *ast.CallExpr:
				if key, op, ok := mutexOp(pass, m); ok {
					switch op {
					case "lock":
						events = append(events, lockEvent{pos: m.Pos(), lock: key})
					case "unlock":
						if !inDefer {
							events = append(events, lockEvent{pos: m.Pos(), unlock: key})
						}
						// A deferred unlock releases at return: it never
						// shrinks the held set mid-body, so it is no event.
					}
					return true
				}
				if obj := pass.Callee(m); obj != nil {
					if fn, ok := obj.(*types.Func); ok && fn.Pkg() == pass.Pkg {
						events = append(events, lockEvent{pos: m.Pos(), callee: obj})
					}
				}
				return true
			}
			return true
		})
	}
	walk(body, false)
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	*out = append(*out, lockUnit{owner: owner, events: events})
}

// lockUnit is one analyzed function body: a declaration (owner set, a
// call-graph node) or a literal (owner nil, its locks still edge-checked).
type lockUnit struct {
	owner  types.Object
	events []lockEvent
}

// mutexOp classifies a call as a lock or unlock of an identifiable mutex
// class, returning the class key. Only sync.Mutex / sync.RWMutex methods
// qualify; locks named only by a local variable have no class and are
// skipped.
func mutexOp(pass *Pass, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", "", false
	}
	fn, isFn := pass.Callee(call).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	key = lockClass(pass, sel.X)
	if key == "" {
		return "", "", false
	}
	return key, op, true
}

// lockClass names the lock a receiver expression denotes: "Owner.field" for
// struct-field mutexes (including a promoted embedded mutex, which is named
// by the owner type alone), or "pkgvar <name>" for package-level mutex
// variables. Locals return "".
func lockClass(pass *Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj := pass.ObjectOf(e.Sel)
		if obj == nil {
			return ""
		}
		if owner := namedTypeName(pass.TypeOf(e.X)); owner != "" {
			return owner + "." + obj.Name()
		}
		return ""
	case *ast.Ident:
		obj := pass.ObjectOf(e)
		if obj == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "pkgvar " + v.Name()
		}
		// A receiver whose type embeds the mutex: s.Lock() on `type S
		// struct{ sync.Mutex }` — the class is the embedding type.
		if owner := namedTypeName(obj.Type()); owner != "" {
			return owner + ".(embedded)"
		}
		return ""
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lockClass(pass, e.X)
		}
	}
	return ""
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// sccOf computes strongly connected components (iterative Tarjan) and
// returns a representative id per node.
func sccOf(nodes map[string]bool, adj map[string][]string) map[string]int {
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, vs := range adj {
		sort.Strings(vs)
	}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, compID := 0, 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = compID
				if w == v {
					break
				}
			}
			compID++
		}
	}
	for _, v := range sorted {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return comp
}

func compSize(comp map[string]int, node string) int {
	n := 0
	for _, c := range comp {
		if c == comp[node] {
			n++
		}
	}
	return n
}

// cycleString renders the component containing node as "A -> B -> A",
// members sorted for determinism.
func cycleString(comp map[string]int, node string) string {
	var members []string
	for n, c := range comp {
		if c == comp[node] {
			members = append(members, n)
		}
	}
	sort.Strings(members)
	return strings.Join(members, " -> ") + " -> " + members[0]
}
