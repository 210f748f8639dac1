// Command cmctl inspects toolkit configuration: it validates Strategy
// Specifications and CM-RIDs, shows the capability set each interface
// declaration implies, and — given a constraint — lists the applicable
// strategies with their guarantees, reproducing the Section 4.1
// initialization dialogue ("The CM then suggests strategies that are
// applicable to these interfaces, along with the associated guarantees").
//
// Usage:
//
//	cmctl check -spec strategy.spec
//	cmctl check -rid b.rid
//	cmctl suggest -x salary1 -xrid a.rid -y salary2 -yrid b.rid [-arity 1]
//	cmctl state -state-dir /var/lib/cmshell-a
//	cmctl ring -route table.json [-plan a,b,c,d]
//	cmctl ring -spec strategy.spec -members a,b,c [-write table.json]
//	cmctl ckpt -state-dir /var/lib/cmshell-a [-log trace-a] [-verify]
//
// The ckpt subcommand decodes the sectioned trace checkpoints a
// retention-enabled shell persists, checking every section's CRC and
// decoding the meta and base sections as a cold start does, and prints
// granular verdicts; -verify turns the outcome into an exit code for
// scripted preflight before a cold start.  The monitor section is checked
// by its CRC only: decoding it needs the deployment's guarantees.
//
// The state subcommand reads a cmshell durable state directory without
// modifying it (safe while the shell is running): per-journal segment
// counts, WAL sizes, checkpoint ages, and any damage recovery would
// truncate at, plus the decoded reliability journal — per-peer outbox
// depth (the messages a restart would replay) and receive cursors.
//
// The ring subcommand shows a fleet route table (DESIGN.md §10): epoch,
// membership, per-shell base counts against the bounded-load cap, the
// placement checksum, and the base→owner map.  The table comes from a
// route file (-route) or from computing a fresh epoch-1 assignment for a
// spec and membership (-spec -members, the same pure function every
// fleet member evaluates).  -plan diffs the loaded table against a
// proposed membership and prints the moves a rebalance to it would make;
// -write dumps the table as a route file for cmshell.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"

	"cmtk/internal/durable"
	"cmtk/internal/fleet"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/strategy"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "check":
		check(os.Args[2:])
	case "suggest":
		suggest(os.Args[2:])
	case "state":
		state(os.Args[2:])
	case "ring":
		ringCmd(os.Args[2:])
	case "ckpt":
		ckptCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cmctl check [-spec FILE] [-rid FILE]")
	fmt.Fprintln(os.Stderr, "       cmctl suggest -x BASE -xrid FILE -y BASE -yrid FILE [-arity N]")
	fmt.Fprintln(os.Stderr, "       cmctl state -state-dir DIR")
	fmt.Fprintln(os.Stderr, "       cmctl ring {-route FILE | -spec FILE -members A,B,C} [-rid FILE] [-plan A,B,C,D] [-write FILE]")
	fmt.Fprintln(os.Stderr, "       cmctl ckpt -state-dir DIR [-log NAME] [-verify]  (-verify checks CRCs and decodes meta/base; monitor needs the guarantees)")
	os.Exit(2)
}

func check(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	specPath := fs.String("spec", "", "strategy specification to validate")
	ridPath := fs.String("rid", "", "CM-RID to validate")
	fs.Parse(args)
	if *specPath == "" && *ridPath == "" {
		usage()
	}
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		spec, err := rule.ParseSpec(f)
		f.Close()
		if err != nil {
			log.Fatalf("cmctl: %s: %v", *specPath, err)
		}
		fmt.Printf("%s: valid strategy specification\n", *specPath)
		fmt.Printf("  sites: %v\n", spec.Sites)
		fmt.Printf("  items: %d database, %d CM-private\n", len(spec.Items), len(spec.Private))
		fmt.Printf("  rules:\n")
		for _, r := range spec.Rules {
			fmt.Printf("    %s\n", r)
		}
		for _, src := range spec.Guarantees {
			g, err := guarantee.Parse(src)
			if err != nil {
				log.Fatalf("cmctl: %s: guarantee %q: %v", *specPath, src, err)
			}
			fmt.Printf("  guarantee %s:  %s\n", g.Name(), g.Formula())
		}
	}
	if *ridPath != "" {
		cfg, err := rid.ParseFile(*ridPath)
		if err != nil {
			log.Fatalf("cmctl: %s: %v", *ridPath, err)
		}
		fmt.Printf("%s: valid CM-RID (kind %s, site %s)\n", *ridPath, cfg.Kind, cfg.Site)
		for base := range cfg.Items {
			caps := translator.CapsFromStatements(cfg.Statements, base)
			fmt.Printf("  item %s: capabilities %s\n", base, caps)
		}
		for _, st := range cfg.Statements {
			fmt.Printf("  interface %s\n", st)
		}
	}
}

func state(args []string) {
	fs := flag.NewFlagSet("state", flag.ExitOnError)
	dir := fs.String("state-dir", "", "durable state directory to inspect")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}
	infos, clean, err := durable.Inspect(*dir)
	if err != nil {
		log.Fatalf("cmctl: %v", err)
	}
	shutdown := "dirty (no clean-shutdown marker: next start replays journals)"
	if clean {
		shutdown = "clean (marker present: next start is warm)"
	}
	fmt.Printf("%s: %d journal(s), last shutdown %s\n", *dir, len(infos), shutdown)
	for _, info := range infos {
		fmt.Printf("\njournal %s: %d segment(s), %d bytes WAL, %d record(s) after checkpoint\n",
			info.Name, info.Segments, info.WALBytes, info.Records)
		if info.HasCheckpoint {
			fmt.Printf("  checkpoint: %d bytes, written %s\n",
				info.CheckpointLen, info.CheckpointAt.Format("2006-01-02 15:04:05"))
		} else {
			fmt.Printf("  checkpoint: none (full replay from the log)\n")
		}
		for _, d := range info.Damage {
			fmt.Printf("  damage: %s in %s at offset %d (%s) — recovery stops here\n",
				d.Kind, d.Segment, d.Offset, d.Detail)
		}
		if !strings.HasPrefix(info.Name, "rel-") {
			continue
		}
		// Reliability journals decode further: what a restart would replay.
		rec, err := durable.ReadLog(*dir, info.Name)
		if err != nil {
			fmt.Printf("  (undecodable: %v)\n", err)
			continue
		}
		sum, err := transport.SummarizeJournal(rec)
		if err != nil {
			fmt.Printf("  (undecodable: %v)\n", err)
			continue
		}
		fmt.Printf("  sender epoch: %d\n", sum.Epoch)
		for _, peer := range sortedKeysOut(sum.Out) {
			o := sum.Out[peer]
			fmt.Printf("  -> %s: outbox depth %d (%d fire(s)), next seq %d\n",
				peer, o.Pending, o.Fires, o.NextSeq)
		}
		for _, peer := range sortedKeysIn(sum.In) {
			in := sum.In[peer]
			fmt.Printf("  <- %s: dedup cursor at seq %d (sender epoch %d)\n",
				peer, in.Next, in.Epoch)
		}
	}
}

// ckptCmd implements `cmctl ckpt`: inspect and verify the sectioned
// trace checkpoints a retention-enabled shell persists (read-only, safe
// while the shell runs).  Every section's CRC is checked and its
// verdict printed; with -verify the exit code reflects the outcome, so
// an operator can validate a checkpoint before trusting a cold start to
// it.  The monitor section is checked by its CRC only, because resuming
// it needs the deployment's guarantees.
func ckptCmd(args []string) {
	fs := flag.NewFlagSet("ckpt", flag.ExitOnError)
	dir := fs.String("state-dir", "", "durable state directory to inspect")
	logName := fs.String("log", "", "checkpoint log to decode (default: every trace-* log)")
	verify := fs.Bool("verify", false, "exit nonzero unless every snapshot verifies (section CRCs, meta and base decode; the monitor section is CRC-checked only)")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}
	var names []string
	if *logName != "" {
		names = []string{*logName}
	} else {
		infos, _, err := durable.Inspect(*dir)
		if err != nil {
			log.Fatalf("cmctl: %v", err)
		}
		for _, info := range infos {
			if strings.HasPrefix(info.Name, "trace-") {
				names = append(names, info.Name)
			}
		}
	}
	if len(names) == 0 {
		fmt.Printf("%s: no trace checkpoint logs\n", *dir)
		return
	}
	ok := true
	for _, name := range names {
		rec, err := durable.ReadLog(*dir, name)
		if err != nil {
			log.Fatalf("cmctl: %s: %v", name, err)
		}
		fmt.Printf("checkpoint %s: ", name)
		if rec.Snapshot == nil {
			fmt.Printf("no snapshot")
			if len(rec.Damage) > 0 {
				fmt.Printf(" (%s: %s)", rec.Damage[0].Kind, rec.Damage[0].Detail)
				ok = false
			}
			fmt.Println()
			continue
		}
		cs, rep, err := shell.DecodeTraceCheckpoint(rec.Snapshot)
		verdict := "verified"
		if err != nil {
			verdict = err.Error()
			ok = false
		}
		fmt.Printf("%d bytes, container v%d, %s\n", len(rec.Snapshot), rep.Version, verdict)
		for _, st := range rep.Sections {
			v := "ok"
			if st.Err != "" {
				v = "REJECTED: " + st.Err
			}
			fmt.Printf("  section %-10s %8d bytes  %s\n", st.Name, st.Bytes, v)
		}
		if err == nil {
			fmt.Printf("  next seq %d, %d event(s) folded (%d bytes), base time %s, %d base item(s)\n",
				cs.NextSeq, cs.PrunedEvents, cs.PrunedBytes,
				cs.BaseTime.Format("2006-01-02 15:04:05"), len(cs.Base))
		}
	}
	if *verify && !ok {
		os.Exit(1)
	}
}

// ringCmd implements `cmctl ring`: load (or compute) a fleet route
// table, print its layout, and optionally plan a rebalance or dump a
// route file.
func ringCmd(args []string) {
	fs := flag.NewFlagSet("ring", flag.ExitOnError)
	routePath := fs.String("route", "", "route-table JSON file to inspect")
	specPath := fs.String("spec", "", "strategy specification to assign (with -members)")
	members := fs.String("members", "", "comma-separated shell ids for a fresh epoch-1 assignment")
	plan := fs.String("plan", "", "comma-separated proposed membership: print the moves a rebalance would make")
	writePath := fs.String("write", "", "dump the table to this route file")
	ridPath := fs.String("rid", "", "CM-RID file: show which shell each of its notify-capable bases routes to")
	fs.Parse(args)

	splitIDs := func(s string) []string {
		var out []string
		for _, id := range strings.Split(s, ",") {
			if id = strings.TrimSpace(id); id != "" {
				out = append(out, id)
			}
		}
		return out
	}

	// A spec supplies the rule-graph affinity map: mandatory when it is
	// the table source, and honored by -plan so a planned rebalance
	// keeps affinity groups together exactly as the fleet would.
	var affinity map[string]string
	var specBases []string
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		spec, err := rule.ParseSpec(f)
		f.Close()
		if err != nil {
			log.Fatalf("cmctl: %s: %v", *specPath, err)
		}
		plan, err := spec.Plan()
		if err != nil {
			log.Fatalf("cmctl: %s: %v", *specPath, err)
		}
		affinity = fleet.Affinity(plan)
		specBases = fleet.SpecBases(spec)
	}

	var tab fleet.Table
	var source string
	switch {
	case *routePath != "":
		var err error
		if tab, err = fleet.ReadFile(*routePath); err != nil {
			log.Fatalf("cmctl: %v", err)
		}
		source = *routePath
	case *specPath != "":
		ids := splitIDs(*members)
		if len(ids) == 0 {
			log.Fatal("cmctl: ring -spec needs -members")
		}
		var err error
		tab, err = fleet.Assign(1, ids, specBases, fleet.Params{Affinity: affinity})
		if err != nil {
			log.Fatalf("cmctl: %v", err)
		}
		source = fmt.Sprintf("%s (fresh assignment)", *specPath)
	default:
		usage()
	}

	bases := tab.Bases()
	counts := tab.Counts()
	bound := "n/a"
	if len(tab.Members) > 0 && tab.LoadFactor > 0 {
		bound = fmt.Sprint(int(math.Ceil(float64(len(bases)) / float64(len(tab.Members)) * tab.LoadFactor)))
	}
	fmt.Printf("route table from %s\n", source)
	fmt.Printf("  epoch %d, %d member(s), %d base(s), %d vnode(s)/member, load cap %s, checksum %016x\n",
		tab.Epoch, len(tab.Members), len(bases), tab.VNodes, bound, tab.Checksum())
	for _, m := range tab.Members {
		fmt.Printf("  shell %-12s owns %d base(s)\n", m, counts[m])
	}
	for _, b := range bases {
		fmt.Printf("    %s -> %s\n", b, tab.Owners[b])
	}

	if *ridPath != "" {
		cfg, err := rid.ParseFile(*ridPath)
		if err != nil {
			log.Fatalf("cmctl: %s: %v", *ridPath, err)
		}
		// The translator's view of the table: the bases this source can
		// push notifications for, and the shell each callback is routed
		// (or forwarded) to under the current epoch.
		fmt.Printf("\ntranslator %s (site %s) notify routing:\n", *ridPath, cfg.Site)
		for _, base := range translator.NotifyBases(cfg.Statements) {
			owner, ok := tab.Owner(base)
			if !ok {
				owner = "(not in table: static site routing)"
			}
			fmt.Printf("  N(%s) -> %s\n", base, owner)
		}
	}

	if *plan != "" {
		ids := splitIDs(*plan)
		next, err := fleet.Assign(tab.Epoch+1, ids, bases,
			fleet.Params{VNodes: tab.VNodes, LoadFactor: tab.LoadFactor, Affinity: affinity})
		if err != nil {
			log.Fatalf("cmctl: %v", err)
		}
		moves := fleet.Moves(tab, next)
		fmt.Printf("\nrebalance plan to [%s] (epoch %d): %d of %d base(s) move\n",
			strings.Join(ids, " "), next.Epoch, len(moves), len(bases))
		for _, mv := range moves {
			fmt.Printf("  %s: %s -> %s\n", mv.Base, mv.From, mv.To)
		}
	}
	if *writePath != "" {
		if err := tab.WriteFile(*writePath); err != nil {
			log.Fatalf("cmctl: %v", err)
		}
		fmt.Printf("wrote route table to %s\n", *writePath)
	}
}

func sortedKeysOut(m map[string]transport.OutSummary) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysIn(m map[string]transport.InSummary) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func suggest(args []string) {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	x := fs.String("x", "", "primary item base")
	y := fs.String("y", "", "replica item base")
	xridPath := fs.String("xrid", "", "CM-RID binding the primary")
	yridPath := fs.String("yrid", "", "CM-RID binding the replica")
	arity := fs.Int("arity", 1, "key arity of the families")
	fs.Parse(args)
	if *x == "" || *y == "" || *xridPath == "" || *yridPath == "" {
		usage()
	}
	xcfg, err := rid.ParseFile(*xridPath)
	if err != nil {
		log.Fatal(err)
	}
	ycfg, err := rid.ParseFile(*yridPath)
	if err != nil {
		log.Fatal(err)
	}
	xCaps := translator.CapsFromStatements(xcfg.Statements, *x)
	yCaps := translator.CapsFromStatements(ycfg.Statements, *y)
	fmt.Printf("constraint: %s(n) = %s(n) for all n\n", *x, *y)
	fmt.Printf("  %s at site %s offers: %s\n", *x, xcfg.Site, xCaps)
	fmt.Printf("  %s at site %s offers: %s\n", *y, ycfg.Site, yCaps)
	choices := strategy.SuggestCopy(
		strategy.Copy{X: *x, Y: *y, Arity: *arity},
		xCaps, yCaps, xcfg.Site, ycfg.Site, strategy.Options{},
	)
	if len(choices) == 0 {
		fmt.Println("no applicable strategy: the declared interfaces support neither propagation, polling nor monitoring")
		os.Exit(1)
	}
	for i, ch := range choices {
		fmt.Printf("\nstrategy %d: %s — %s\n", i+1, ch.Name, ch.Description)
		for _, r := range ch.Rules {
			fmt.Printf("  rule %s\n", r)
		}
		for base, site := range ch.Private {
			fmt.Printf("  private %s @ %s\n", base, site)
		}
		fmt.Println("  guarantees:")
		for _, g := range ch.Guarantees {
			fmt.Printf("    %s:  %s\n", g.Name(), g.Formula())
		}
	}
}
