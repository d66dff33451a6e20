// Package analysistest runs one analyzer over a testdata package and checks
// its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest closely enough that the suites
// port mechanically if the upstream dependency ever lands.
//
// Testdata packages live under internal/analysis/testdata/<analyzer>/ — a
// directory name the go tool ignores, so the deliberately-broken code in
// them is invisible to builds, tests, and hwlint itself. They are still
// fully type-checked: imports of hwstar/internal/... resolve against the
// real module's export data, so the analyzers exercise the same type
// information they see in production.
//
// Every line that should trigger a diagnostic carries a want comment:
//
//	r := g.Reserve("") // want `never reaches`
//
// Lines without a want comment assert the negative: any diagnostic on them
// fails the test. A want comment may hold several quoted regexps when one
// line triggers several diagnostics.
package analysistest

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hwstar/internal/analysis"
)

// Run loads dir as a package with import path asPath, applies the analyzer
// (suppressions included), and compares diagnostics with want comments.
// asPath controls the scoping rules the package is judged under — pass the
// path of the production package the testdata stands in for.
func Run(t *testing.T, dir, asPath string, a *analysis.Analyzer) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkg, err := analysis.LoadDir(root, dir, asPath)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := posKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", d.Pos, d.Message, d.Analyzer)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// wantRE pulls the quoted regexps out of a want comment: double-quoted or
// backquoted strings after the word `want`.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

func collectWants(t *testing.T, pkg *analysis.Package) map[posKey][]*want {
	t.Helper()
	wants := map[posKey][]*want{}
	for _, f := range pkg.Files {
		var comments []*ast.Comment
		for _, cg := range f.Comments {
			comments = append(comments, cg.List...)
		}
		for _, c := range comments {
			text := strings.TrimPrefix(c.Text, "//")
			idx := strings.Index(text, "want ")
			if idx < 0 {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			key := posKey{filepath.Base(pos.Filename), pos.Line}
			for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("want "):], -1) {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	return wants
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		wd, _ := os.Getwd()
		return "", fmt.Errorf("go list -m in %s: %w", wd, err)
	}
	return strings.TrimSpace(string(out)), nil
}
