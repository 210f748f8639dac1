// Stanford: the Section 4.3 scenario — constraints spanning four
// heterogeneous information systems without modifying any of them:
//
//   - "lookup":  the CS department's personnel directory (a read-write
//     kvstore with native change callbacks) — the primary for phone data;
//   - "whois":   the campus whois mirror (a writable kvstore);
//   - "groupdb": the database group's relational database (our stand-in
//     for their Sybase server);
//   - "bib":     a read-only bibliographic information system.
//
// Copy constraints keep each person's phone number equal in lookup,
// whois and groupdb.  A referential constraint requires every paper in
// the bibliography by a group member to be mentioned in groupdb; since
// the bibliography is read-only, that constraint can only be monitored
// (Section 6.2's fallback), which a report-only sweeper does.
//
// Run with:
//
//	go run ./examples/stanford
package main

import (
	"fmt"
	"log"
	"time"

	"cmtk/internal/core"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/ris/bibstore"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/strategy"
	"cmtk/internal/translator"
	"cmtk/internal/vclock"
)

func main() {
	clk := vclock.NewVirtual(vclock.Epoch)

	// The four autonomous systems.
	lookup := kvstore.New("lookup", false, true)
	whois := kvstore.New("whois", false, false)
	groupdb := relstore.New("groupdb")
	mustExec(groupdb, "CREATE TABLE people (uname TEXT, phone TEXT, PRIMARY KEY (uname))")
	mustExec(groupdb, "CREATE TABLE papers (citekey TEXT, title TEXT, PRIMARY KEY (citekey))")
	bib := bibstore.New()
	check(bib.Load(
		bibstore.Record{Key: "cgw96", Author: "Widom", Title: "A Toolkit for Constraint Management", Year: 1996, Venue: "ICDE"},
		bibstore.Record{Key: "w94", Author: "Widom", Title: "Proof Rules for Weak Consistency", Year: 1994, Venue: "TR"},
		bibstore.Record{Key: "gm92", Author: "Garcia-Molina", Title: "The Demarcation Protocol", Year: 1992, Venue: "EDBT"},
	))

	// CM-RIDs: one per system, each in its own native terms.
	lookupRID, err := rid.ParseString(`
kind kvstore
site Lookup
item phone1
  type string
  attr phone
interface Ws(phone1(n), b) ->2s N(phone1(n), b)
`)
	check(err)
	whoisRID, err := rid.ParseString(`
kind kvstore
site Whois
item phone2
  type string
  attr phone
interface WR(phone2(n), b) ->3s W(phone2(n), b)
`)
	check(err)
	groupRID, err := rid.ParseString(`
kind relstore
site GDB
item phone3
  type string
  read   SELECT phone FROM people WHERE uname = $n
  write  UPDATE people SET phone = $b WHERE uname = $n
  insert INSERT INTO people (uname, phone) VALUES ($n, $b)
  delete DELETE FROM people WHERE uname = $n
  list   SELECT uname FROM people
item paperrec
  type string
  read   SELECT title FROM papers WHERE citekey = $n
  write  UPDATE papers SET title = $b WHERE citekey = $n
  insert INSERT INTO papers (citekey, title) VALUES ($n, $b)
  delete DELETE FROM papers WHERE citekey = $n
  list   SELECT citekey FROM papers
interface WR(phone3(n), b) ->3s W(phone3(n), b)
interface WR(paperrec(n), b) ->3s W(paperrec(n), b)
`)
	check(err)
	bibRID, err := rid.ParseString(`
kind bibstore
site Bib
item paper
  type string
  field title
interface RR(paper(n)) && paper(n) = b ->1s R(paper(n), b)
`)
	check(err)

	// One shell serves Whois and GDB together (Figure 1's shared hosting);
	// Lookup and Bib get their own.
	tk := core.New(core.Config{Clock: clk, BusLatency: 100 * time.Millisecond, FireDelay: 50 * time.Millisecond})
	check(tk.AddSite(core.Site{RID: lookupRID, Local: &translator.LocalStores{KV: lookup}}))
	check(tk.AddSite(core.Site{RID: whoisRID, Local: &translator.LocalStores{KV: whois}, Shell: "hub"}))
	check(tk.AddSite(core.Site{RID: groupRID, Local: &translator.LocalStores{Rel: groupdb}, Shell: "hub"}))
	check(tk.AddSite(core.Site{RID: bibRID, Local: &translator.LocalStores{Bib: bib}}))
	check(tk.AddCopy(core.CopyConstraint{X: "phone1", Y: "phone2", Arity: 1}))
	check(tk.AddCopy(core.CopyConstraint{X: "phone1", Y: "phone3", Arity: 1}))
	check(tk.Deploy())
	check(tk.Start())
	defer tk.Stop()

	// Phone updates at the department directory ripple everywhere.
	fmt.Println("directory updates at lookup:")
	check(lookup.Set("widom", "phone", "650-723-0001"))
	check(lookup.Set("hector", "phone", "650-723-0002"))
	clk.Advance(5 * time.Second)
	check(lookup.Set("widom", "phone", "650-723-9999"))
	clk.Advance(5 * time.Second)

	w2, _ := whois.Get("widom", "phone")
	res, _ := groupdb.Exec("SELECT phone FROM people WHERE uname = 'widom'")
	fmt.Printf("  whois:   widom -> %s\n", w2)
	fmt.Printf("  groupdb: widom -> %s\n", res.Rows[0][0].Str())

	// The referential constraint over the read-only bibliography can only
	// be monitored: a report-only sweep counts bib papers missing from
	// groupdb (Section 6.2's fallback).
	bibIface, _ := tk.Interface("Bib")
	gdbIface, _ := tk.Interface("GDB")
	bibShell, ok := tk.ShellOfSite("Bib")
	if !ok {
		log.Fatal("no shell hosts Bib")
	}
	sweeper := strategy.NewSweeper(bibShell, clk, 24*time.Hour, bibIface, "paper", gdbIface, "paperrec")
	sweeper.ReportOnly = true

	// groupdb mentions two of the three papers.
	mustExec(groupdb, "INSERT INTO papers VALUES ('cgw96', 'A Toolkit for Constraint Management')")
	mustExec(groupdb, "INSERT INTO papers VALUES ('gm92', 'The Demarcation Protocol')")
	sweeper.SweepNow()
	_, orphans, _ := sweeper.Stats()
	fmt.Printf("\nreferential monitor: %d bibliography paper(s) missing from groupdb\n", orphans)

	// Repair and re-check.
	mustExec(groupdb, "INSERT INTO papers VALUES ('w94', 'Proof Rules for Weak Consistency')")
	sweeper.SweepNow()
	_, orphans2, _ := sweeper.Stats()
	fmt.Printf("after adding the missing record: %d new orphan(s) on the next sweep\n", orphans2-orphans)

	// Validity of the whole run.
	if vs := tk.CheckTrace(); len(vs) > 0 {
		log.Fatalf("trace violations: %v", vs)
	}
	fmt.Println("\nexecution valid; copy-constraint guarantees:")
	reports := tk.CheckGuarantees()
	for _, rep := range reports {
		fmt.Printf("  %s\n", rep)
	}
	if !guarantee.AllHold(reports) {
		log.Fatal("guarantee violated")
	}
}

func mustExec(db *relstore.DB, sql string) {
	if _, err := db.Exec(sql); err != nil {
		log.Fatal(err)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
