package analysis

import (
	"go/ast"
	"go/types"
)

// SeededRand guards the determinism discipline in the packages where
// reproducibility is load-bearing: the scheduler, the serving layer, the
// fault injector, the experiments, and the hardware model. This is the
// PR 2/3 jitter-bug class — serve's retry backoff shipped with a constant
// rand.NewSource(1), synchronizing retry storms across server instances,
// and the fix must not swing to the opposite failure (time-seeded sources
// that make chaos runs unreproducible).
//
// Flagged in scope:
//
//   - Any draw from the global math/rand (or math/rand/v2) source —
//     rand.Intn, rand.Float64, rand.Shuffle, ... — and rand.Seed. The global
//     source is process-wide shared state: seeded by time, raced by every
//     other user, impossible to replay.
//   - Constructing a source or generator from time.Now, directly
//     (rand.NewSource(time.Now().UnixNano())) or through a local variable
//     assigned from time.Now in the same function.
//
// The rule: determinism paths thread an explicit seed (fault.Config.Seed,
// workload generators). Code that genuinely wants per-process entropy —
// identity, not reproducibility — reads crypto/rand once for a seed, which
// this analyzer deliberately permits.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc:  "no global math/rand and no time-seeded sources in determinism-critical packages",
	Run:  runSeededRand,
}

// The scope tracks the determinism frontier: every tier where a replayed
// seed must reproduce a run. The PR 6-9 tiers (frontend, store, shard,
// cluster) and the vectorized executor joined when they started making
// seed-dependent decisions — hedge delays, replica choice, workload draws.
var seededRandScope = []string{
	"hwstar/internal/sched",
	"hwstar/internal/serve",
	"hwstar/internal/fault",
	"hwstar/internal/experiments",
	"hwstar/internal/hw",
	"hwstar/internal/shard",
	"hwstar/internal/store",
	"hwstar/internal/frontend",
	"hwstar/internal/cluster",
	"hwstar/internal/vecexec",
	"hwstar/internal/workload",
}

// randConstructors take an explicit seed or source and are therefore the
// *approved* way to use math/rand; everything else at package level draws
// from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2
	"NewPCG": true, "NewChaCha8": true,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func runSeededRand(pass *Pass) error {
	inScope := false
	for _, p := range seededRandScope {
		if PathHasPrefix(pass.Path, p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFuncRand(pass, fn)
			return true
		})
	}
	return nil
}

func checkFuncRand(pass *Pass, fn *ast.FuncDecl) {
	// Pass 1: taint local variables any of whose assignments mention
	// time.Now. `seed := time.Now().UnixNano()` taints seed even when the
	// source construction happens lines later.
	tainted := map[types.Object]bool{}
	taintRHS := func(lhs []ast.Expr, rhs []ast.Expr) {
		for i, l := range lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			var r ast.Expr
			switch {
			case len(rhs) == len(lhs):
				r = rhs[i]
			case len(rhs) == 1:
				r = rhs[0]
			}
			if r != nil && mentionsTimeNow(pass, r) {
				if obj := pass.ObjectOf(id); obj != nil {
					tainted[obj] = true
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			taintRHS(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			taintRHS(lhs, n.Values)
		}
		return true
	})

	// Pass 2: flag global draws and time-derived seeds.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := pass.Callee(call)
		f, ok := obj.(*types.Func)
		if !ok || f.Pkg() == nil || !isRandPkg(f.Pkg().Path()) {
			return true
		}
		if f.Type().(*types.Signature).Recv() != nil {
			return true // methods on a threaded *rand.Rand / Source are fine
		}
		if !randConstructors[f.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the global math/rand source: nondeterministic and racy — thread a seeded *rand.Rand (the PR 2/3 jitter-bug class)",
				f.Name())
			return true
		}
		for _, arg := range call.Args {
			if mentionsTaintOutsideNestedConstructor(pass, arg, tainted) {
				pass.Reportf(call.Pos(),
					"rand.%s seeded from time.Now: unreproducible in a determinism path — thread an explicit seed, or read crypto/rand if this is jitter identity, not replay",
					f.Name())
				break
			}
		}
		return true
	})
}

func mentionsTimeNow(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := pass.Callee(call); obj != nil && IsPkgFunc(obj, "time", "Now") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsTaintOutsideNestedConstructor reports whether e mentions time.Now
// or a tainted local, without descending into nested rand constructor calls:
// in rand.New(rand.NewSource(seed)) the inner call carries (and reports) the
// taint itself, and one diagnostic per construct is enough.
func mentionsTaintOutsideNestedConstructor(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj := pass.Callee(n); obj != nil {
				if IsPkgFunc(obj, "time", "Now") {
					found = true
					return false
				}
				if f, ok := obj.(*types.Func); ok && f.Pkg() != nil && isRandPkg(f.Pkg().Path()) && randConstructors[f.Name()] {
					return false
				}
			}
		case *ast.Ident:
			if obj := pass.ObjectOf(n); obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
