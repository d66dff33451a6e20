// Package analysis is hwstar's in-tree static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API plus a
// package loader built on `go list -export` and the standard library's gc
// export-data importer.
//
// The keynote argues that tracking the hardware demands performance-
// engineering *discipline*, and four PRs in, hwstar has house rules that
// review alone already failed to hold: the constant rand.NewSource(1) retry
// jitter shipped in PR 2 and synchronized retry storms across servers until
// PR 3 found it. McKenney's rule for concurrency invariants applies to all
// of them — invariants must be tooling-checked, not reviewed. This package
// turns the house rules into compiler-grade checks:
//
//   - ctxfirst: context.Context is the first parameter of exported
//     functions, and library code never manufactures context.Background().
//   - seededrand: no global math/rand and no time-seeded sources in the
//     determinism-critical packages (sched, serve, fault, experiments, hw).
//   - senterr: sentinels from internal/errs are classified with errors.Is
//     (never ==) and wrapped with %w (never %v).
//   - pairedresource: a trace.Span that is started reaches End, and a
//     mem.Reservation that is granted reaches Release, on every path.
//   - hotalloc: no interface-boxing calls (fmt and friends) inside loops in
//     the morsel-processing packages (scan, join, agg, vecexec).
//
// The framework is intentionally stdlib-only so the lint gate runs on a
// hermetic builder with no module downloads: `go run ./cmd/hwlint ./...`
// needs nothing but the Go toolchain that builds the tree.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. It is the in-tree analogue of
// golang.org/x/tools/go/analysis.Analyzer, so checks written here port
// mechanically to the upstream framework if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //hwlint:ignore suppression comments.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and why.
	Doc string
	// Run inspects one type-checked package and reports violations via
	// pass.Reportf.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path ("hwstar/internal/serve"). Analyzers
	// scope their rules on it; the test harness substitutes the path a
	// testdata package should be judged as.
	Path string
	Fset *token.FileSet
	// Files holds the parsed, non-test source files of the package.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object an identifier uses or defines, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// Callee resolves the called function or method object of a call, or nil for
// indirect calls and conversions.
func (p *Pass) Callee(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.ObjectOf(fun).(*types.Func); ok {
			return f
		}
		// Conversions and builtins resolve to non-func objects; callers
		// treat nil as "not a function call".
		return nil
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.Fn.
		if f, ok := p.ObjectOf(fun.Sel).(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsPkgFunc reports whether obj is the package-level function path.name
// (e.g. "context".Background).
func IsPkgFunc(obj types.Object, path, name string) bool {
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Path() == path && f.Name() == name && f.Type().(*types.Signature).Recv() == nil
}

// NamedType reports whether t (after unwrapping pointers and aliases) is the
// named type path.name. Identity is judged by path and name, not pointer
// equality: a type loaded from export data and the same type checked from
// source are distinct *types.Named values.
func NamedType(t types.Type, path, name string) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// PathHasPrefix reports whether the import path is pkg itself or a package
// beneath it.
func PathHasPrefix(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position, with //hwlint:ignore suppressions applied
// (see suppress.go). Malformed suppressions are themselves diagnostics.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Path:     pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = applySuppressions(pkg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
