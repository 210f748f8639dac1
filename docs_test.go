// Documentation checks: the operator-facing docs must not drift from
// the code.  Backticked file paths must exist, documented command flags
// must be defined by the named binary, and every metric family a live
// process exposes must be catalogued in OBSERVABILITY.md.
package cmtk_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cmtk/internal/analysis"
	"cmtk/internal/analysis/metricname"
	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/fleet"
	"cmtk/internal/harness"
	"cmtk/internal/obs"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/ris/server"
	"cmtk/internal/rule"
)

// operator-facing docs whose references are checked
var checkedDocs = []string{"README.md", "OBSERVABILITY.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md"}

var backtickRe = regexp.MustCompile("`([^`\n]+)`")

// pathLike matches backticked tokens that claim to be repo files or
// directories: a repo-relative path with a slash, or a root-level
// markdown/config file.
var pathLike = regexp.MustCompile(`^(?:(?:cmd|internal|examples|docs)(?:/[\w.-]+)+|[A-Z][A-Z_]*[\w-]*\.md)$`)

// TestDocsReferenceExistingFiles fails when a doc backticks a repo path
// that does not exist.
func TestDocsReferenceExistingFiles(t *testing.T) {
	for _, doc := range checkedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range backtickRe.FindAllStringSubmatch(string(body), -1) {
			tok := m[1]
			if !pathLike.MatchString(tok) {
				continue
			}
			if _, err := os.Stat(tok); err != nil {
				t.Errorf("%s references `%s`, which does not exist", doc, tok)
			}
		}
	}
}

// flagDefRe extracts flag names registered in a main.go:
// flag.String("name", ...), flag.Bool(...), flag.Var(&x, "name", ...),
// and the same registrations on a subcommand's `fs` flag set.
var flagDefRe = regexp.MustCompile(`(?:flag|fs)\.\w+\((?:&\w+, )?"([\w-]+)"`)

// cmdRe matches a backticked invocation of one of our binaries.
var cmdRe = regexp.MustCompile("`((?:cmshell|risd|cmbench|cmctl)\\s+[^`\n]*)`")

// flagTokRe pulls -flag tokens out of a documented command line.
var flagTokRe = regexp.MustCompile(`(^|\s)-([\w-]+)`)

// TestDocsReferenceDefinedFlags fails when a doc shows a binary
// invocation using a flag the binary does not define.
func TestDocsReferenceDefinedFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, bin := range []string{"cmshell", "risd", "cmbench", "cmctl"} {
		src, err := os.ReadFile(filepath.Join("cmd", bin, "main.go"))
		if err != nil {
			t.Fatalf("cmd/%s: %v", bin, err)
		}
		flags := map[string]bool{}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]] = true
		}
		defined[bin] = flags
	}
	for _, doc := range checkedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range cmdRe.FindAllStringSubmatch(string(body), -1) {
			line := m[1]
			bin := strings.Fields(line)[0]
			for _, fm := range flagTokRe.FindAllStringSubmatch(line, -1) {
				name := fm[2]
				if !defined[bin][name] {
					t.Errorf("%s documents `%s`, but cmd/%s defines no -%s flag", doc, line, bin, name)
				}
			}
		}
	}
}

// TestObservabilityCataloguesEveryMetric exercises every instrumented
// layer against the default registry — harness experiments cover shells,
// translators, the reliable transport, and the fault injector; a live
// RIS server covers the wire dialects — then asserts each family in the
// scrape output is documented in OBSERVABILITY.md.
func TestObservabilityCataloguesEveryMetric(t *testing.T) {
	harness.E1(1)
	harness.E12(1)
	// The durable layer registers its cmtk_wal_* families in the default
	// registry (E13 runs with isolated per-arm registries).
	st, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg, _, err := st.Log("doc")
	if err != nil {
		t.Fatal(err)
	}
	lg.Append(1, []byte("x"))
	lg.Checkpoint([]byte("s"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The fleet layer's cmtk_fleet_* families only move on a sharded
	// deployment; run a tiny fleet through one post and one rebalance so
	// the router gauges, forward counters, and rebalance counters all
	// register in the default registry.
	fsp, err := rule.ParseSpecString("site F\nprivate FA @ F\nprivate FB @ F\nrule fr: Ws(FA, b) ->5s W(FB, b)\n")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(fsp, fleet.Options{Members: []string{"doc1", "doc2"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fl.Post(data.Item("FA"), data.NewInt(0), data.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	fl.Drain()
	if err := fl.AddShell("doc3"); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Rebalance([]string{"doc1", "doc2", "doc3"}); err != nil {
		t.Fatal(err)
	}
	fl.Stop()

	srv, err := server.ServeRel("127.0.0.1:0", relstore.New("doc"))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := server.DialRel(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cl.Exec("CREATE TABLE x (k TEXT, PRIMARY KEY (k))")
	cl.Close()
	srv.Close()

	var b strings.Builder
	if err := obs.Default.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	// Catalogue membership and naming delegate to the metricname
	// analyzer's shared extraction logic, so the live-scrape check and
	// the static cmlint check cannot drift apart.
	catalogued := metricname.Catalogue(doc)
	families := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		families++
		name := strings.Fields(line)[2]
		if !catalogued[name] {
			t.Errorf("metric %s is exposed but not catalogued in OBSERVABILITY.md", name)
		}
		if !metricname.NameRe.MatchString(name) {
			t.Errorf("metric %s violates the naming convention %s", name, metricname.NameRe)
		}
	}
	// The harness + server must have registered all four layers; a
	// collapse here means the test lost its coverage, not that docs are
	// fine.
	for _, want := range []string{"cmtk_shell_", "cmtk_translator_", "cmtk_transport_", "cmtk_ris_", "cmtk_wal_",
		"cmtk_fleet_epoch", "cmtk_fleet_owned_bases", "cmtk_fleet_rebalances_total"} {
		if !strings.Contains(b.String(), "# TYPE "+want) &&
			!strings.Contains(b.String(), want) {
			t.Errorf("scrape covers no %s* metrics; catalogue test lost coverage", want)
		}
	}
	if families < 10 {
		t.Errorf("only %d families scraped; expected the full instrumented surface", families)
	}
}

// TestCatalogueCoversStaticRegistrations is the static mirror of the
// scrape test above: it extracts every metric registration literal in
// the tree with the metricname analyzer's own logic and asserts each is
// catalogued.  Code paths the scrape test never triggers (error
// counters, rare fault branches) are still held to the catalogue here.
func TestCatalogueCoversStaticRegistrations(t *testing.T) {
	root, _, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	catalogued := metricname.Catalogue(doc)
	seen := 0
	for _, p := range pkgs {
		for _, m := range metricname.FromPackage(p) {
			seen++
			if !catalogued[m.Name] {
				t.Errorf("%s: metric %s is registered but not catalogued in OBSERVABILITY.md", m.Pos, m.Name)
			}
		}
	}
	if seen < 20 {
		t.Errorf("only %d registration sites extracted; the extractor lost coverage", seen)
	}
}
