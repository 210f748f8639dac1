// Package analysis is a dependency-free miniature of golang.org/x/tools'
// go/analysis: just enough framework to write repo-specific static
// checkers over the toolkit's own source tree using only the standard
// library's go/ast, go/parser and go/token.
//
// The paper's thesis — declare a constraint once, enforce it
// mechanically everywhere — applies to this codebase's own invariants:
// the lock order DESIGN.md §9 documents, the vclock-only rule the
// deterministic experiments rely on, the metric-catalogue contract
// OBSERVABILITY.md makes with operators.  Each analyzer in the
// subpackages encodes one such invariant; `cmd/cmlint` runs them all
// and CI fails on any diagnostic, so a violation is a compile-time
// error rather than a probabilistic `-race` catch.  DESIGN.md §11
// documents the suite.
//
// Suppression: a finding on line N is suppressed by a comment
//
//	//cmlint:allow <analyzer>(<reason>)
//
// on line N or line N-1.  The reason is mandatory — a bare allow is
// itself reported — so every exception carries its justification in
// the source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name is the analyzer's identity: the diagnostic prefix and the
	// token named in //cmlint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Collect, when non-nil, runs over every loaded package before any
	// Run call and returns package-local facts (annotation tables,
	// declared ranks).  The merged facts from all packages are handed to
	// every Run via Pass.Facts, so cross-package knowledge — "AppendUnit
	// acquires the trace commit mutex" — is available when checking a
	// caller in another package.
	Collect func(p *Pass) any
	// Run checks one package and reports diagnostics via p.Reportf.
	Run func(p *Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Facts holds every non-nil value the analyzer's Collect phase
	// returned, one entry per package, in load order.
	Facts []any
	// ModRoot is the directory containing go.mod — the anchor for
	// repo-level resources such as OBSERVABILITY.md.
	ModRoot string

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf files a diagnostic at pos unless an allow comment suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowRe matches one suppression: cmlint:allow name(reason).  The
// reason may not contain a close paren; nested parens in justifications
// have not earned their complexity.
var allowRe = regexp.MustCompile(`cmlint:allow\s+([a-z]+)\(([^)]*)\)`)

// bareAllowRe catches a suppression that forgot its mandatory reason.
var bareAllowRe = regexp.MustCompile(`cmlint:allow\s+([a-z]+)(?:\s|$|[^(a-z])`)

// allowSite is one parsed //cmlint:allow comment.
type allowSite struct {
	analyzer string
	reason   string
	file     string
	line     int
}

// collectAllows parses every comment in the package for suppression
// directives, returning the usable sites and the malformed (reasonless)
// ones.
func collectAllows(fset *token.FileSet, files []*ast.File) (sites []allowSite, malformed []Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// A directive starts its comment (gofmt keeps //cmlint:...
				// unspaced); prose that merely mentions cmlint:allow — like
				// this package's own documentation — is not a directive.
				if !strings.HasPrefix(c.Text, "//cmlint:allow") &&
					!strings.HasPrefix(c.Text, "/*cmlint:allow") {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := allowRe.FindAllStringSubmatch(c.Text, -1)
				for _, m := range ms {
					if strings.TrimSpace(m[2]) == "" {
						malformed = append(malformed, Diagnostic{
							Analyzer: "allow",
							Pos:      pos,
							Message:  fmt.Sprintf("cmlint:allow %s() has an empty reason; every suppression must say why", m[1]),
						})
						continue
					}
					sites = append(sites, allowSite{analyzer: m[1], reason: m[2], file: pos.Filename, line: pos.Line})
				}
				if len(ms) == 0 && bareAllowRe.MatchString(c.Text) {
					m := bareAllowRe.FindStringSubmatch(c.Text)
					malformed = append(malformed, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  fmt.Sprintf("cmlint:allow %s is missing its (reason); write cmlint:allow %s(why this is safe)", m[1], m[1]),
					})
				}
			}
		}
	}
	return sites, malformed
}

// allowed reports whether a diagnostic from analyzer at pos is
// suppressed by an allow on the same line or the line above.
func (p *Package) allowed(analyzer string, pos token.Position) bool {
	for _, a := range p.allows {
		if a.analyzer == analyzer && a.file == pos.Filename &&
			(a.line == pos.Line || a.line == pos.Line-1) {
			return true
		}
	}
	return false
}

// Run drives analyzers over packages: every Collect first (facts are
// global), then every (analyzer, package) Run.  Diagnostics come back
// sorted by position for stable output, with malformed allow comments
// included.
func Run(pkgs []*Package, analyzers []*Analyzer, modRoot string) ([]Diagnostic, error) {
	var diags []Diagnostic
	seenMalformed := map[string]bool{}
	for _, pkg := range pkgs {
		for _, d := range pkg.malformed {
			key := d.String()
			if !seenMalformed[key] {
				seenMalformed[key] = true
				diags = append(diags, d)
			}
		}
	}
	for _, a := range analyzers {
		var facts []any
		if a.Collect != nil {
			for _, pkg := range pkgs {
				p := &Pass{Analyzer: a, Pkg: pkg, ModRoot: modRoot, diags: &diags}
				if f := a.Collect(p); f != nil {
					facts = append(facts, f)
				}
			}
		}
		for _, pkg := range pkgs {
			p := &Pass{Analyzer: a, Pkg: pkg, Facts: facts, ModRoot: modRoot, diags: &diags}
			if err := a.Run(p); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
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

// ImportName returns the local name file binds the given import path to
// ("" when the file does not import it).  The default name is the last
// path segment, which is right for every stdlib package we care about.
func ImportName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// SelectorPath renders a selector chain rooted at an identifier
// ("t.shards[i].mu" → "t.shards.mu", "s.mu" → "s.mu").  Index
// expressions are collapsed and anything not reducible to an
// identifier-rooted chain returns "".
func SelectorPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := SelectorPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.IndexExpr:
		return SelectorPath(x.X)
	case *ast.ParenExpr:
		return SelectorPath(x.X)
	case *ast.StarExpr:
		return SelectorPath(x.X)
	case *ast.CallExpr:
		return ""
	}
	return ""
}
