// Multi-process integration test: builds the real binaries and runs the
// paper's Figure 2 deployment as separate OS processes — two risd
// database servers and two cmshell constraint-manager shells — then
// verifies an application update at one database reaches the other.
package cmtk_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/ris/server"
)

// startProc launches a binary and returns a channel of its stdout lines
// plus a stop function, which also runs when the test ends.  One
// goroutine drains each pipe for the process's whole lifetime, so
// successive expectLine calls never compete.  Stderr is copied to the
// test's stderr; a line of it saying the process could not bind its
// address also goes to the channel, for bound.
func startProc(t *testing.T, name string, args ...string) (<-chan string, func()) {
	t.Helper()
	cmd := exec.Command(name, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop := func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
	// Stopping twice is harmless, so a test that fails before it stops
	// the process still does not leave it running.
	t.Cleanup(stop)
	lines := make(chan string, 64)
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			if strings.Contains(sc.Text(), addrInUse) {
				lines <- sc.Text()
			}
		}
	}()
	go func() {
		readers.Wait()
		close(lines)
	}()
	return lines, stop
}

// expectLine reads lines until one contains marker, returning it.
func expectLine(t *testing.T, lines <-chan string, marker string) string {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("process exited before printing %q", marker)
			}
			if strings.Contains(line, marker) {
				return line
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q", marker)
		}
	}
}

// addrInUse is what a process prints when it cannot bind its listen
// address.
const addrInUse = "address already in use"

// bound reads lines until one contains marker and returns it with true,
// or returns false when the process could not bind its listen address.
func bound(t *testing.T, lines <-chan string, marker string) (string, bool) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("process exited before printing %q", marker)
			}
			if strings.Contains(line, addrInUse) {
				return line, false
			}
			if strings.Contains(line, marker) {
				return line, true
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q", marker)
		}
	}
}

// retryOnAddrInUse starts processes of which some listen on an address
// that reserveAddr found free and a peer must know before they bind it.
// reserveAddr frees the port first, so another process can take it in
// between.  start is told which retry it is (0 the first run) and
// returns a stop function and whether every process bound its address;
// when one did not, its processes are stopped and start runs again, and
// a retry must reserve fresh addresses.  It returns start's stop
// function after at most three retries.
func retryOnAddrInUse(t *testing.T, start func(retry int) (stop func(), ok bool)) func() {
	t.Helper()
	for retry := 0; ; retry++ {
		stop, ok := start(retry)
		if ok {
			return stop
		}
		stop()
		if retry == 3 {
			t.Fatal("a reserved address was taken before its process bound it, four times in a row")
		}
		t.Logf("a reserved address was taken before its process bound it; restarting on fresh addresses (retry %d of 3)", retry+1)
	}
}

// lastField extracts the last whitespace-separated field of a line.
func lastField(line string) string {
	fs := strings.Fields(line)
	return fs[len(fs)-1]
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/risd", "./cmd/cmshell")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}

	// Two autonomous database servers.
	scA, stopA := startProc(t, filepath.Join(bin, "risd"), "-kind", "relstore", "-name", "branch", "-demo")
	defer stopA()
	addrA := lastField(expectLine(t, scA, "serving"))
	scB, stopB := startProc(t, filepath.Join(bin, "risd"), "-kind", "relstore", "-name", "hq", "-demo")
	defer stopB()
	addrB := lastField(expectLine(t, scB, "serving"))

	// Configuration files: the spec and one CM-RID per site.
	dir := t.TempDir()
	specPath := filepath.Join(dir, "strategy.spec")
	writeFile(t, specPath, `
site A
site B
item salary1 @ A
item salary2 @ B
rule prop: N(salary1(n), b) ->5s WR(salary2(n), b)
`)
	ridAPath := filepath.Join(dir, "a.rid")
	writeFile(t, ridAPath, fmt.Sprintf(`
kind relstore
site A
addr %s
item salary1
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface Ws(salary1(n), b) ->2s N(salary1(n), b)
`, addrA))
	ridBPath := filepath.Join(dir, "b.rid")
	writeFile(t, ridBPath, fmt.Sprintf(`
kind relstore
site B
addr %s
item salary2
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
interface WR(salary2(n), b) ->3s W(salary2(n), b)
`, addrB))

	// Shell B first (it only receives), on a port of its own choosing,
	// then shell A with B as a peer.  B acks every fire back to A, so it
	// needs A's address, reserved ahead.
	var obsURL string
	stopShells := retryOnAddrInUse(t, func(int) (func(), bool) {
		shAAddr := reserveAddr(t)
		scShB, stopShB := startProc(t, filepath.Join(bin, "cmshell"),
			"-id", "shellB", "-spec", specPath, "-rid", ridBPath,
			"-peer", "shellA="+shAAddr)
		shBAddr := lastField(expectLine(t, scShB, "listening"))
		expectLine(t, scShB, "running")

		scShA, stopShA := startProc(t, filepath.Join(bin, "cmshell"),
			"-id", "shellA", "-spec", specPath, "-rid", ridAPath, "-listen", shAAddr,
			"-peer", "shellB="+shBAddr, "-route", "B=shellB",
			"-metrics-addr", "127.0.0.1:0")
		obsURL = strings.Fields(expectLine(t, scShA, "observability on"))[3]
		_, ok := bound(t, scShA, "running")
		return func() { stopShA(); stopShB() }, ok
	})
	defer stopShells()

	// An application updates the branch database directly over SQL.
	appA, err := server.DialRel(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer appA.Close()
	if _, err := appA.Exec("UPDATE employees SET salary = 12345 WHERE empid = 'e1'"); err != nil {
		t.Fatal(err)
	}

	// The update must surface at HQ through the two shells.
	appB, err := server.DialRel(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer appB.Close()
	deadline := time.Now().Add(20 * time.Second)
	propagated := false
	for !propagated && time.Now().Before(deadline) {
		res, err := appB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
		if err == nil && len(res.Rows) == 1 && res.Rows[0][0].Equal(data.NewInt(12345)) {
			propagated = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !propagated {
		t.Fatal("update never propagated across processes")
	}
	waitOutboxDrained(t, obsURL, "shellB")

	// Shell A's -metrics-addr surface must expose valid Prometheus text
	// covering the shell, translator, and transport layers.
	resp, err := http.Get(obsURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cmtk_shell_fires_total{shell="shellA",scope="remote"}`,
		`cmtk_translator_ops_total{site="A",op="notify"}`,
		`cmtk_transport_sends_total{peer="shellB"}`,
		"# TYPE cmtk_shell_fire_latency_seconds histogram",
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("/metrics missing %q; scrape:\n%s", want, scrape)
		}
	}

	// The firing left structured hop records in /debug/traces.
	resp2, err := http.Get(obsURL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	traces, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traces), `"outcome": "sent"`) || !strings.Contains(string(traces), `"rule": "prop"`) {
		t.Errorf("/debug/traces missing sent hop for rule prop:\n%s", traces)
	}
}

// reserveAddr returns a free loopback address for a process started
// later to listen on.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitOutboxDrained waits for a shell's reliable outbox to a peer to
// empty: the peer acked every message, which it can only do when it has
// the shell's address.
func waitOutboxDrained(t *testing.T, obsURL, peer string) {
	t.Helper()
	series := `cmtk_transport_outbox_depth{peer="` + peer + `"}`
	deadline := time.Now().Add(20 * time.Second)
	for {
		depth := scrapeCounterLine(t, obsURL, series)
		if depth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want 0: the acks never came back", series, depth)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// scrapeCounterLine fetches /metrics and returns the integer value of the
// first line starting with prefix, or -1 when the series is absent.
func scrapeCounterLine(t *testing.T, obsURL, prefix string) int64 {
	t.Helper()
	resp, err := http.Get(obsURL + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseInt(lastField(line), 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// TestFleetRingCLI drives the fleet tooling as real processes: cmctl
// computes a route table for a spec and membership, writes the route
// file, plans a grow rebalance from it, and a cmshell started with
// -route-table joins as a fleet member.  Placement determinism across
// processes is asserted through the printed checksum: two separate
// cmctl invocations with the same inputs must compute the same table.
func TestFleetRingCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/cmctl", "./cmd/cmshell")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fleet.spec")
	var spec strings.Builder
	spec.WriteString("site S\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&spec, "private X%d @ S\nprivate Y%d @ S\n", i, i)
		fmt.Fprintf(&spec, "rule r%d: Ws(X%d, b) ->5s W(Y%d, b)\n", i, i, i)
	}
	writeFile(t, specPath, spec.String())
	tablePath := filepath.Join(dir, "table.json")

	ringOut := func(args ...string) string {
		out, err := exec.Command(filepath.Join(bin, "cmctl"), append([]string{"ring"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("cmctl ring %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	checksumOf := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if i := strings.Index(line, "checksum "); i >= 0 {
				return strings.TrimSpace(line[i+len("checksum "):])
			}
		}
		t.Fatalf("no checksum line in:\n%s", out)
		return ""
	}

	out1 := ringOut("-spec", specPath, "-members", "s1,s2,s3", "-write", tablePath)
	if !strings.Contains(out1, "epoch 1, 3 member(s), 24 base(s)") {
		t.Fatalf("unexpected ring summary:\n%s", out1)
	}
	out2 := ringOut("-spec", specPath, "-members", "s1,s2,s3")
	if c1, c2 := checksumOf(out1), checksumOf(out2); c1 != c2 {
		t.Fatalf("two processes computed different placements: %s vs %s", c1, c2)
	}
	planOut := ringOut("-route", tablePath, "-spec", specPath, "-plan", "s1,s2,s3,s4")
	if !strings.Contains(planOut, "rebalance plan to [s1 s2 s3 s4] (epoch 2)") {
		t.Fatalf("no rebalance plan in:\n%s", planOut)
	}
	if !strings.Contains(planOut, "-> s4") {
		t.Fatalf("grow plan moved nothing to the new member:\n%s", planOut)
	}

	// Every member is started with the same -peer list, naming itself too.
	stop := retryOnAddrInUse(t, func(int) (func(), bool) {
		s1Addr := reserveAddr(t)
		sc, stop := startProc(t, filepath.Join(bin, "cmshell"),
			"-id", "s1", "-spec", specPath, "-route-table", tablePath,
			"-listen", s1Addr, "-peer", "s1="+s1Addr,
			"-peer", "s2="+reserveAddr(t), "-peer", "s3="+reserveAddr(t))
		line := expectLine(t, sc, "fleet member s1 of 3")
		if !strings.Contains(line, "route table epoch 1") {
			t.Fatalf("unexpected fleet banner: %s", line)
		}
		line, ok := bound(t, sc, "listening on")
		if !ok {
			return stop, false
		}
		if got := lastField(line); got != s1Addr {
			t.Fatalf("s1 listens on %s, want %s", got, s1Addr)
		}
		expectLine(t, sc, "running")
		return stop, true
	})
	defer stop()
}

// TestCrashRecoveryAcrossProcesses kills a cmshell with SIGKILL while its
// peer is unreachable and its outbox is full of undelivered fires, then
// restarts it over the same -state-dir.  The write-ahead log must bring
// the outbox back, the restarted process must replay the fires in order
// once the peer comes up, and the replica database must converge to the
// last pre-crash value — the Section 5 "remember messages that need to be
// sent out upon recovery" condition, demonstrated across real processes.
func TestCrashRecoveryAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/risd", "./cmd/cmshell")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}

	scA, stopA := startProc(t, filepath.Join(bin, "risd"), "-kind", "relstore", "-name", "branch", "-demo")
	defer stopA()
	addrA := lastField(expectLine(t, scA, "serving"))
	scB, stopB := startProc(t, filepath.Join(bin, "risd"), "-kind", "relstore", "-name", "hq", "-demo")
	defer stopB()
	addrB := lastField(expectLine(t, scB, "serving"))

	dir := t.TempDir()
	specPath := filepath.Join(dir, "strategy.spec")
	writeFile(t, specPath, `
site A
site B
item salary1 @ A
item salary2 @ B
rule prop: N(salary1(n), b) ->5s WR(salary2(n), b)
`)
	ridAPath := filepath.Join(dir, "a.rid")
	writeFile(t, ridAPath, fmt.Sprintf(`
kind relstore
site A
addr %s
item salary1
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface Ws(salary1(n), b) ->2s N(salary1(n), b)
`, addrA))
	ridBPath := filepath.Join(dir, "b.rid")
	writeFile(t, ridBPath, fmt.Sprintf(`
kind relstore
site B
addr %s
item salary2
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
interface WR(salary2(n), b) ->3s W(salary2(n), b)
`, addrB))

	// Shell B starts only AFTER shell A has crashed, at an address A was
	// given at its first start: everything A sends before then must
	// buffer.  Shell A keeps one address across its restart, for B's acks.
	// Both are reserved ahead.
	shAAddr, shBAddr := reserveAddr(t), reserveAddr(t)
	stateDir := filepath.Join(dir, "state-a")
	startShellA := func() (<-chan string, func(), string) {
		sc, stop := startProc(t, filepath.Join(bin, "cmshell"),
			"-id", "shellA", "-spec", specPath, "-rid", ridAPath, "-listen", shAAddr,
			"-peer", "shellB="+shBAddr, "-route", "B=shellB",
			"-state-dir", stateDir, "-retry", "100ms",
			"-metrics-addr", "127.0.0.1:0")
		obsURL := strings.Fields(expectLine(t, sc, "observability on"))[3]
		expectLine(t, sc, "cold (recovering journals)")
		return sc, stop, obsURL
	}
	var obsURL string
	crashShA := retryOnAddrInUse(t, func(retry int) (func(), bool) {
		if retry > 0 {
			shAAddr = reserveAddr(t)
		}
		var sc <-chan string
		var stop func()
		sc, stop, obsURL = startShellA()
		_, ok := bound(t, sc, "running")
		return stop, ok
	})

	// Three ordered updates at the branch database; shell A fires for each
	// and the sends buffer against the unreachable peer.
	appA, err := server.DialRel(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer appA.Close()
	for _, salary := range []int{101, 102, 103} {
		if _, err := appA.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = 'e1'", salary)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for scrapeCounterLine(t, obsURL, `cmtk_transport_sends_total{peer="shellB"}`) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("shell A never buffered the three fires")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// SIGKILL: no flush, no clean-shutdown marker, no goodbye.
	crashShA()

	// Restart over the same state directory: the journal must replay the
	// buffered fires.  Until B starts, no peer has A's address, so a
	// retry may move A to a fresh one.
	var obsURL2 string
	restartShellA := func() func() {
		return retryOnAddrInUse(t, func(retry int) (func(), bool) {
			if retry > 0 {
				shAAddr = reserveAddr(t)
			}
			var sc <-chan string
			var stop func()
			sc, stop, obsURL2 = startShellA()
			replayLine, ok := bound(t, sc, "replaying")
			if !ok {
				return stop, false
			}
			expectLine(t, sc, "running")
			if !strings.Contains(replayLine, "replaying 3 unacked") {
				t.Fatalf("restart replayed the wrong outbox: %q", replayLine)
			}
			return stop, true
		})
	}
	stopShA2 := restartShellA()
	defer func() { stopShA2() }()

	// Only now does shell B come up, at the address A has been retrying.
	// If that address was taken meanwhile, A restarts toward a fresh one;
	// its outbox is still in the journal.
	stopShB := retryOnAddrInUse(t, func(retry int) (func(), bool) {
		if retry > 0 {
			stopShA2()
			shBAddr = reserveAddr(t)
			stopShA2 = restartShellA()
		}
		sc, stop := startProc(t, filepath.Join(bin, "cmshell"),
			"-id", "shellB", "-spec", specPath, "-rid", ridBPath,
			"-listen", shBAddr, "-peer", "shellA="+shAAddr)
		_, ok := bound(t, sc, "running")
		return stop, ok
	})
	defer stopShB()

	// The replayed fires arrive in order, so the replica converges to the
	// LAST pre-crash value.
	appB, err := server.DialRel(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer appB.Close()
	deadline = time.Now().Add(30 * time.Second)
	converged := false
	var got data.Value
	for time.Now().Before(deadline) {
		res, err := appB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
		if err == nil && len(res.Rows) == 1 {
			got = res.Rows[0][0]
			if got.Equal(data.NewInt(103)) {
				converged = true
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !converged {
		t.Fatalf("replica = %v, want the last pre-crash value 103", got)
	}
	waitOutboxDrained(t, obsURL2, "shellB")

	// A state directory inspection while the shell is live must be safe
	// and see the journals.
	infos, _, err := durable.Inspect(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, info := range infos {
		names[info.Name] = true
	}
	if !names["rel-shellA"] || !names["shell-shellA"] {
		t.Fatalf("state dir journals = %v, want rel-shellA and shell-shellA", names)
	}
}

// TestCkptVerifyRejectsUndecodableMeta: a trace checkpoint whose sections
// all pass their CRCs but whose meta section is not JSON is one a cold
// start discards, so `cmctl ckpt -verify` must exit non-zero on it.
func TestCkptVerifyRejectsUndecodableMeta(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/cmctl")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building cmctl: %v", err)
	}
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.Options{Sync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	lg, _, err := st.Log("trace-s")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(durable.EncodeSections([]durable.Section{
		{Name: "meta", Data: []byte("not json")},
		{Name: "base", Data: []byte("{}")},
		{Name: "monitor", Data: []byte("{}")},
	})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "cmctl"), "ckpt", "-state-dir", dir, "-verify").CombinedOutput()
	if err == nil {
		t.Fatalf("cmctl ckpt -verify exited 0 on an undecodable meta section:\n%s", out)
	}
	if !strings.Contains(string(out), "decoding checkpoint meta") {
		t.Fatalf("cmctl ckpt -verify did not name the meta section:\n%s", out)
	}
}
