// Package analysistest runs an analyzer over golden fixture packages
// and matches its diagnostics against `// want` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest without the dependency.
//
// A fixture lives at <dir>/testdata/src/<pkg>/ and marks each expected
// diagnostic on the offending line:
//
//	time.Now() // want `wall-clock read`
//
// The backquoted payload is an anchored-nowhere regexp matched against
// the diagnostic message.  Several `want`s on one line expect several
// diagnostics.  Lines without a want must produce no diagnostic, and
// every want must be matched — both directions fail the test.
package analysistest

import (
	"path/filepath"
	"regexp"
	"testing"

	"cmtk/internal/analysis"
)

// wantRe pulls the expectation payloads off a comment: // want `re` `re`
var wantRe = regexp.MustCompile("want((?:\\s+`[^`]*`)+)")

var payloadRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the named fixture packages under dir/testdata/src, runs the
// analyzer (Collect across all fixtures first, then each package), and
// reports mismatches on t.  The fixture root doubles as Pass.ModRoot so
// fixtures can carry their own OBSERVABILITY.md or go.mod-relative
// resources.
//
//cmlint:allow deadsurface(test-support package: every analyzer's fixture test calls it)
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgNames ...string) {
	t.Helper()
	var pkgs []*analysis.Package
	var wants []*expectation
	for _, name := range pkgNames {
		fixDir := filepath.Join(dir, "testdata", "src", name)
		pkg, err := analysis.LoadDir(fixDir, "", "")
		if err != nil {
			t.Fatalf("load fixture %s: %v", name, err)
		}
		if pkg == nil {
			t.Fatalf("fixture %s has no Go files", fixDir)
		}
		pkgs = append(pkgs, pkg)
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, p := range payloadRe.FindAllStringSubmatch(m[1], -1) {
						re, err := regexp.Compile(p[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p[1], err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: p[1]})
					}
				}
			}
		}
	}
	modRoot := filepath.Join(dir, "testdata", "src", pkgNames[0])
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a}, modRoot)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for _, d := range diags {
		if !match(wants, d) {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching `%s`, got none", w.file, w.line, w.raw)
		}
	}
}

// match marks and reports the first unhit expectation covering d.
func match(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
