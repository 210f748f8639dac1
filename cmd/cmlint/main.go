// cmlint is the toolkit's invariant checker: a multichecker driving the
// repo-specific analyzers in internal/analysis over the source tree.
// CI runs it on every push; any diagnostic is a failure.
//
// Usage:
//
//	go run ./cmd/cmlint ./...        # check the whole tree
//	go run ./cmd/cmlint ./internal/shell ./internal/trace
//	go run ./cmd/cmlint -list        # describe the analyzers
//
// Diagnostics print as file:line:col: [analyzer] message.  A finding is
// suppressed — with a mandatory justification — by a comment on the
// offending line or the line above:
//
//	//cmlint:allow wallclock(Real is the bridge to the system clock)
//
// DESIGN.md §11 documents each analyzer and the invariant it encodes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cmtk/internal/analysis"
	"cmtk/internal/analysis/goroleak"
	"cmtk/internal/analysis/lockorder"
	"cmtk/internal/analysis/metricname"
	"cmtk/internal/analysis/wallclock"
)

var analyzers = []*analysis.Analyzer{
	lockorder.Analyzer,
	wallclock.Analyzer,
	metricname.Analyzer,
	goroleak.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cmlint [-list] [-only a,b] [packages]\n\npatterns: directories, or dir/... for a subtree; default ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "cmlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, modRoot, err := load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmlint: %v\n", err)
		os.Exit(2)
	}

	diags, err := analysis.Run(pkgs, selected, modRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(mustGetwd(), pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cmlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// load resolves ./...-style patterns into parsed packages, deduplicated
// by directory.
func load(patterns []string) ([]*analysis.Package, string, error) {
	modRoot, modPath, err := analysis.FindModule(".")
	if err != nil {
		return nil, "", err
	}
	seen := map[string]bool{}
	var pkgs []*analysis.Package
	add := func(ps ...*analysis.Package) {
		for _, p := range ps {
			if p != nil && !seen[p.Dir] {
				seen[p.Dir] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := rest
			if root == "." || root == "" {
				root = "."
			}
			tree, err := analysis.LoadTree(root, analysis.LoadOptions{})
			if err != nil {
				return nil, "", fmt.Errorf("load %s: %w", pat, err)
			}
			add(tree...)
			continue
		}
		pkg, err := analysis.LoadDir(pat, modRoot, modPath, analysis.LoadOptions{})
		if err != nil {
			return nil, "", fmt.Errorf("load %s: %w", pat, err)
		}
		if pkg == nil {
			return nil, "", fmt.Errorf("load %s: no Go files", pat)
		}
		add(pkg)
	}
	return pkgs, modRoot, nil
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}
