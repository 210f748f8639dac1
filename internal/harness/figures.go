package harness

import (
	"fmt"
	"time"

	"cmtk/internal/core"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/ris/server"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
	"cmtk/internal/workload"
)

// kvStoreHandle wraps a kvstore for driver writes.
type kvStoreHandle struct{ s *kvstore.Store }

func newKV() *kvStoreHandle {
	return &kvStoreHandle{s: kvstore.New("lookup", false, true)}
}

// Set performs an application write on the directory.
func (k *kvStoreHandle) Set(entity, attr, value string) {
	if err := k.s.Set(entity, attr, value); err != nil {
		panic(err)
	}
}

// relstoreWithTextSalary builds the replica table with a TEXT value
// column (for string-valued families like phone numbers).
func relstoreWithTextSalary() *relstore.DB {
	db := relstore.New("hq")
	if _, err := db.Exec("CREATE TABLE employees (empid TEXT, salary TEXT, PRIMARY KEY (empid))"); err != nil {
		panic(err)
	}
	return db
}

// F1 reproduces Figure 1's logical architecture: three heterogeneous
// sites — a relational branch database, a relational HQ database and a
// whois-style directory — where the directory site has no CM-Shell of
// its own and is hosted by HQ's shell, with two constraints sharing the
// primary.
func F1(updates int) Table {
	tbl := Table{
		ID:      "F1",
		Title:   "Figure 1 architecture: 3 sites, 2 shells, shared hosting",
		Ref:     "Figure 1, Section 4.3",
		Columns: []string{"sites", "shells", "constraints", "updates", "lost(B)", "lost(C)", "trace", "guarantees"},
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB("branch")
	dbB := newEmployeesDB("hq")
	kvC := kvstore.New("whois", false, false)
	cfgC, err := rid.ParseString(`
kind kvstore
site C
item salary3
  type int
  attr salary
interface WR(salary3(n), b) ->3s W(salary3(n), b)
`)
	must(err)
	tk := core.New(core.Config{Clock: clk, BusLatency: 100 * time.Millisecond, FireDelay: 50 * time.Millisecond})
	must(tk.AddSite(core.Site{RID: notifyRID("A", "salary1"), Local: &translator.LocalStores{Rel: dbA}}))
	must(tk.AddSite(core.Site{RID: writableRID("B", "salary2"), Local: &translator.LocalStores{Rel: dbB}, Shell: "hub"}))
	// Site C has no shell of its own: hosted on the hub, like Figure 1's
	// Site 3.
	must(tk.AddSite(core.Site{RID: cfgC, Local: &translator.LocalStores{KV: kvC}, Shell: "hub"}))
	must(tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}))
	must(tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary3", Arity: 1, Strategy: "notify"}))
	must(tk.Deploy())
	must(tk.Start())
	p := &payroll{tk: tk, clk: clk, dbA: dbA, dbB: dbB, notifyA: true}
	stream := workload.Stream(workload.Config{Seed: 11, Keys: workload.Keys(8), N: updates, MeanGap: time.Second, Poisson: true})
	start := clk.Now()
	for _, u := range stream {
		clk.AdvanceTo(start.Add(u.At))
		p.appWrite(u.Key, u.Value)
	}
	clk.Advance(time.Minute)
	_, lostB := propagationStats(tk.Trace(), "salary1", "salary2", 30*time.Second)
	_, lostC := propagationStats(tk.Trace(), "salary1", "salary3", 30*time.Second)
	vs := tk.CheckTrace()
	tbl.Rows = append(tbl.Rows, []string{
		"3", "2", "2", fmt.Sprint(updates),
		fmt.Sprint(lostB), fmt.Sprint(lostC),
		fmt.Sprintf("%d violations", len(vs)),
		guaranteeSummary(tk.CheckGuarantees()),
	})
	tk.Stop()
	tbl.Notes = append(tbl.Notes,
		"expected shape: both replicas track the primary with zero lost values even though",
		"the directory site shares a shell, exactly as Figure 1 allows")
	return tbl
}

// F2 reproduces Figure 2's toolkit pipeline end to end over real TCP:
// the relational sources run behind network servers in their own
// dialects, the CM-Translators dial them, and the CM-Shells exchange rule
// firings over a TCP mesh — configured purely from RID text and a
// strategy choice.  Runs on the real clock and waits until every value
// has propagated, so the table holds counts and verdicts, not times.
func F2(updates int) Table {
	tbl := Table{
		ID:      "F2",
		Title:   "Figure 2 pipeline over TCP: RIS->RISI->Translator->CMI->Shell",
		Ref:     "Figure 2, Section 4.1",
		Columns: []string{"transport", "updates", "propagated", "guarantees"},
	}
	// In-process baseline on the real clock for comparison.
	for _, mode := range []string{"in-process", "tcp"} {
		dbA := newEmployeesDB("branch")
		dbB := newEmployeesDB("hq")
		cfgA := notifyRID("A", "salary1")
		cfgB := writableRID("B", "salary2")
		var netCfg core.Config
		var cleanup func()
		if mode == "tcp" {
			srvA, err := server.ServeRel("127.0.0.1:0", dbA)
			must(err)
			srvB, err := server.ServeRel("127.0.0.1:0", dbB)
			must(err)
			cfgA.Addr = srvA.Addr()
			cfgB.Addr = srvB.Addr()
			netCfg = core.Config{Clock: vclock.Real{}, Network: transport.NewTCPNetwork()}
			cleanup = func() { srvA.Close(); srvB.Close() }
		} else {
			netCfg = core.Config{Clock: vclock.Real{}}
			cleanup = func() {}
		}
		tk := core.New(netCfg)
		must(tk.AddSite(core.Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}}))
		must(tk.AddSite(core.Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}}))
		must(tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}))
		must(tk.Deploy())
		must(tk.Start())

		for i := 0; i < updates; i++ {
			key := fmt.Sprintf("e%d", i%5+1)
			val := int64(1000 + i)
			if _, err := dbA.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = '%s'", val, key)); err != nil {
				panic(err)
			}
			if res, _ := dbA.Exec(fmt.Sprintf("SELECT empid FROM employees WHERE empid = '%s'", key)); len(res.Rows) == 0 {
				dbA.Exec(fmt.Sprintf("INSERT INTO employees VALUES ('%s', %d)", key, val))
			}
		}
		// Wait until every value has landed at B and been recorded.
		var delays []time.Duration
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if delays, _ = propagationStats(tk.Trace(), "salary1", "salary2", 0); len(delays) == updates {
				break
			}
		}
		reports := guarantee.CheckAll(tk.Trace(),
			guarantee.Follows{X: "salary1", Y: "salary2"},
			guarantee.StrictlyFollows{X: "salary1", Y: "salary2"},
		)
		tbl.Rows = append(tbl.Rows, []string{
			mode, fmt.Sprint(updates), fmt.Sprint(len(delays)),
			guaranteeSummary(reports),
		})
		tk.Stop()
		cleanup()
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: every value propagates and the guarantee outcomes are identical in",
		"both transports: the pipeline, configured only by RIDs, is unchanged over TCP")
	return tbl
}
