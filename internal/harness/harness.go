// Package harness reproduces every scenario the paper's evaluation rests
// on (Sections 3.3, 4.2, 5, 6 and Figures 1–2) as runnable experiments.
// Each experiment builds a deployment, drives a workload, validates the
// recorded execution against Appendix A.2, checks the claimed guarantees,
// and reports a table.  cmd/cmbench prints the tables; EXPERIMENTS.md
// records them; TestGoldenExperiments holds each against testdata/.
package harness

import (
	"fmt"
	"strings"
	"time"

	"cmtk/internal/core"
	"cmtk/internal/data"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// Table is one experiment's result.
type Table struct {
	ID      string // experiment id, e.g. "E2"
	Title   string
	Ref     string // paper section reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", t.ID, t.Title, t.Ref)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// holdsMark renders a guarantee outcome.
func holdsMark(holds bool) string {
	if holds {
		return "holds"
	}
	return "FAILS"
}

// fmtDur renders a duration compactly: sub-10ms values keep microsecond
// precision so real-clock latencies do not round to zero.
func fmtDur(d time.Duration) string {
	if d < 10*time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(time.Millisecond).String()
}

// ---- deployment builders ----

// relRIDNotify is the Section 4.2 site-A configuration (notify interface).
const relRIDNotify = `
kind relstore
site %s
item %s
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface Ws(%s(n), b) ->2s N(%s(n), b)
interface RR(%s(n)) && %s(n) = b ->1s R(%s(n), b)
`

// relRIDReadOnly drops the notify interface (the interface change of
// Section 4.2.3).
const relRIDReadOnly = `
kind relstore
site %s
item %s
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
interface RR(%s(n)) && %s(n) = b ->1s R(%s(n), b)
`

// relRIDWritable is the Section 4.2 site-B configuration.
const relRIDWritable = `
kind relstore
site %s
item %s
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface WR(%s(n), b) ->3s W(%s(n), b)
`

func notifyRID(site, base string) *rid.Config {
	cfg, err := rid.ParseString(fmt.Sprintf(relRIDNotify, site, base, base, base, base, base, base))
	if err != nil {
		panic(err)
	}
	return cfg
}

func readOnlyRID(site, base string) *rid.Config {
	cfg, err := rid.ParseString(fmt.Sprintf(relRIDReadOnly, site, base, base, base, base))
	if err != nil {
		panic(err)
	}
	return cfg
}

func writableRID(site, base string) *rid.Config {
	cfg, err := rid.ParseString(fmt.Sprintf(relRIDWritable, site, base, base, base))
	if err != nil {
		panic(err)
	}
	return cfg
}

func newEmployeesDB(name string) *relstore.DB {
	db := relstore.New(name)
	if _, err := db.Exec("CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))"); err != nil {
		panic(err)
	}
	return db
}

// payroll is one assembled copy-constraint deployment.
type payroll struct {
	tk  *core.Toolkit
	clk *vclock.Virtual
	dbA *relstore.DB
	dbB *relstore.DB
	// notifyA reports whether A's writes are CM-visible; when false the
	// driver records spontaneous writes itself.
	notifyA bool
}

func (p *payroll) appWrite(key string, val int64) {
	item := data.Item("salary1", data.NewString(key))
	var old data.Value
	res, _ := p.dbA.Exec("SELECT salary FROM employees WHERE empid = '" + key + "'")
	if len(res.Rows) == 1 {
		old = res.Rows[0][0]
		p.dbA.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = '%s'", val, key))
	} else {
		p.dbA.Exec(fmt.Sprintf("INSERT INTO employees VALUES ('%s', %d)", key, val))
	}
	if !p.notifyA {
		p.tk.RecordSpontaneous("A", item, old, data.NewInt(val))
	}
}

// propagationStats measures, for each distinct value X took, the delay
// until Y reflected it; lost counts values never reflected before the
// horizon minus settle.
func propagationStats(tr *trace.Trace, xBase, yBase string, settle time.Duration) (delays []time.Duration, lost int) {
	// Pair keys as the guarantee checkers do.
	keys := map[string][]data.Value{}
	for _, e := range tr.Events() {
		if e.Desc.Op.HasItem() && (e.Desc.Item.Base == xBase || e.Desc.Item.Base == yBase) {
			keys[data.ItemName{Base: "", Args: e.Desc.Item.Args}.String()] = e.Desc.Item.Args
		}
	}
	horizon := tr.End().Add(-settle)
	for _, args := range keys {
		x := data.ItemName{Base: xBase, Args: args}
		y := data.ItemName{Base: yBase, Args: args}
		ytl := tr.Timeline(y)
		for _, xs := range tr.Timeline(x) {
			if xs.V.IsNull() || xs.At.After(horizon) {
				continue
			}
			found := false
			for _, ys := range ytl {
				after := ys.At.After(xs.At) || (ys.At.Equal(xs.At) && ys.Seq > xs.Seq)
				if after && ys.V.Equal(xs.V) {
					delays = append(delays, ys.At.Sub(xs.At))
					found = true
					break
				}
			}
			if !found {
				lost++
			}
		}
	}
	return delays, lost
}

// countMatching counts trace events matching a template source string.
func countMatching(tr *trace.Trace, tplSrc string) int {
	tpl, err := rule.ParseTemplate(tplSrc)
	if err != nil {
		panic(err)
	}
	return len(tr.Matching(tpl))
}

// guaranteeSummary renders "name=holds" pairs.
func guaranteeSummary(reports []guarantee.Report) string {
	parts := make([]string, len(reports))
	for i, r := range reports {
		parts[i] = fmt.Sprintf("%s=%s", shortName(r.Guarantee), holdsMark(r.Holds))
	}
	return strings.Join(parts, " ")
}

func shortName(full string) string {
	if i := strings.IndexByte(full, '('); i > 0 {
		return full[:i]
	}
	return full
}
