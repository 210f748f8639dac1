package main

// Everything the program under test receives is made here, from the seed
// alone: the CM-RIDs and the strategy specification it parses, the keys it
// is preloaded with, and the stream of updates.  TestInputsGolden pins the
// streams byte for byte.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
)

const (
	// meshKeys is the number of employee rows preloaded into both
	// databases; updates choose among them uniformly.
	meshKeys = 1024
	// engineRules is the number of rule pairs in the engine_rules
	// specification, engineItems the number of item triples the
	// interpretation holds (the rule-less triples only scale the state).
	engineRules = 64
	engineItems = 512
	// verifyUpdates is the number of updates behind the verify_trace trace
	// (four recorded events each) and verifyKeys the number of keys they
	// choose among.  The checker rebuilds the state of every item at every
	// generated event, so a pass costs events x items: 300 updates over 128
	// keys keep a pass near a tenth of a second, short enough that many
	// passes of a run fall between the hypervisor's interruptions.
	verifyUpdates = 300
	verifyKeys    = 128
)

// ridBranch is the Section 4.2 site-A configuration: the branch database
// offers a notify interface on salary1.
const ridBranch = `
kind relstore
site A
item salary1
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface Ws(salary1(n), b) ->2s N(salary1(n), b)
interface RR(salary1(n)) && salary1(n) = b ->1s R(salary1(n), b)
`

// ridReplica is the Section 4.2 site-B configuration: headquarters accepts
// write requests on salary2.
const ridReplica = `
kind relstore
site B
item salary2
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface WR(salary2(n), b) ->3s W(salary2(n), b)
`

const createEmployees = "CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))"

// appendMeshKey spells the i-th employee key.
func appendMeshKey(b []byte, i int) []byte {
	return strconv.AppendInt(append(b, 'e'), int64(1000+i), 10)
}

func meshKey(i int) string { return string(appendMeshKey(nil, i)) }

// engineSpec renders the engine_rules strategy: every update of Xi copies
// to Yi and, through a condition that reads Zi, on to Zi, so one
// spontaneous write records three events and evaluates two conditions.
func engineSpec() string {
	var b strings.Builder
	b.WriteString("site S\n")
	for i := 0; i < engineItems; i++ {
		fmt.Fprintf(&b, "private X%d @ S\nprivate Y%d @ S\nprivate Z%d @ S\n", i, i, i)
	}
	for i := 0; i < engineRules; i++ {
		fmt.Fprintf(&b, "rule a%d: Ws(X%d, b) && b > 0 ->5s W(Y%d, b)\n", i, i, i)
		fmt.Fprintf(&b, "rule b%d: W(Y%d, b) && b + 1 > Z%d ->5s W(Z%d, b)\n", i, i, i, i)
	}
	return b.String()
}

// updateGen is the seeded update stream of one workload.  Values count up
// from 1 and are never reused, so a value identifies its update at every
// seam between the source and the replica.
type updateGen struct {
	rng  *rand.Rand
	keys int
	next int64
	buf  []byte
	// cycle, when set, is a seeded permutation of the keys that pick walks
	// round and round instead of drawing keys independently.
	cycle []int
}

// newUpdateGen derives a workload's stream from the run seed; streams of
// different workloads differ under one seed.
func newUpdateGen(seed int64, workload string, keys int) *updateGen {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &updateGen{
		rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		keys: keys,
		next: 1,
	}
}

// cycling makes the stream visit the keys in a seeded order, every key
// equally often.  verify_trace uses it: the cost of a verification pass
// grows with the number of distinct items in the trace, and independent
// draws would make that number, and so the cost, vary with the seed.
func (g *updateGen) cycling() *updateGen {
	g.cycle = g.rng.Perm(g.keys)
	return g
}

// pick returns the next update: which key it touches and its value.
func (g *updateGen) pick() (key int, val int64) {
	if g.cycle != nil {
		key = g.cycle[int(g.next-1)%len(g.cycle)]
	} else {
		key = g.rng.Intn(g.keys)
	}
	val = g.next
	g.next++
	return key, val
}

// sql renders the next update as the statement the source database runs.
func (g *updateGen) sql() (stmt string, val int64) {
	key, val := g.pick()
	b := append(g.buf[:0], "UPDATE employees SET salary = "...)
	b = strconv.AppendInt(b, val, 10)
	b = append(b, " WHERE empid = '"...)
	b = append(appendMeshKey(b, key), '\'')
	g.buf = b
	return string(b), val
}

// streamHash is the SHA-256 of the first n updates of a workload's stream,
// in the form the program receives them: the statement the source database
// runs, or for engine_rules (keys = engineRules) the item and its value.
func streamHash(seed int64, w workload, n int) string {
	h := sha256.New()
	g := w.gen(seed)
	workload := w.name
	for i := 0; i < n; i++ {
		if workload == "engine_rules" {
			key, val := g.pick()
			fmt.Fprintf(h, "X%d=%d\n", key, val)
			continue
		}
		stmt, _ := g.sql()
		h.Write([]byte(stmt))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
