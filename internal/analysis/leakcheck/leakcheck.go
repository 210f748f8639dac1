// Package leakcheck is a dependency-free goroutine-leak guard for test
// suites.  It is the dynamic complement to the static goroleak analyzer:
// goroleak proves every `go` statement is *visibly* tied to a shutdown
// path; leakcheck proves the ties actually fire, by snapshotting the
// goroutines alive before a suite runs and failing the binary if any new
// ones outlive it.
//
// Usage — one TestMain per guarded package:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Main records a baseline before m.Run, then polls for up to five
// seconds afterwards for the goroutine set to return to that baseline.
// The grace period absorbs benign teardown races (a Close that returns
// before its drain goroutine observes the done channel).  Goroutines
// owned by the runtime and the testing harness are ignored, as are any
// that were already alive at baseline — leakcheck only blames the suite
// for goroutines the suite itself created and failed to stop.
//
// leakcheck deliberately reads the real clock: it measures the test
// binary, not simulated time, so it lives outside the packages the
// wallclock analyzer patrols.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// gracePeriod is how long Main waits for straggler goroutines to exit
// after the suite completes before declaring them leaked.
const gracePeriod = 5 * time.Second

// pollEvery is the re-snapshot interval during the grace period.
const pollEvery = 20 * time.Millisecond

// Main wraps m.Run with a goroutine-leak check and exits the binary.
// On a passing suite it exits non-zero if goroutines created during the
// run are still alive after the grace period; a failing suite reports
// its own failure and the leak check is skipped (leaks are expected
// when tests abort mid-flight).
//
//cmlint:allow deadsurface(test-support package: every TestMain calls it; a leak check has no production caller)
func Main(m *testing.M) {
	baseline := snapshot()
	code := m.Run()
	if code == 0 {
		if leaked := waitForBaseline(baseline, gracePeriod); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr,
				"leakcheck: %d goroutine(s) created by the suite outlived it:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Check fails t if goroutines not alive at call time remain after fn
// returns and the grace period drains.  It is the per-test variant of
// Main for pinpointing which test leaks.
//
//cmlint:allow deadsurface(test-support package: the tests that pinpoint a leak call it)
func Check(t *testing.T, fn func()) {
	t.Helper()
	baseline := snapshot()
	fn()
	if leaked := waitForBaseline(baseline, gracePeriod); len(leaked) > 0 {
		t.Errorf("leakcheck: %d goroutine(s) leaked:\n\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// waitForBaseline polls until every non-baseline goroutine has exited
// or the deadline passes, returning the stacks of the stragglers.
func waitForBaseline(baseline map[string]bool, within time.Duration) []string {
	deadline := time.Now().Add(within)
	for {
		var leaked []string
		for id, stack := range snapshotStacks() {
			if !baseline[id] {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(pollEvery)
	}
}

// snapshot returns the ids of all currently interesting goroutines.
func snapshot() map[string]bool {
	ids := make(map[string]bool)
	for id := range snapshotStacks() {
		ids[id] = true
	}
	return ids
}

// snapshotStacks captures all goroutine stacks and returns the
// interesting ones keyed by goroutine id.
func snapshotStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	stacks := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, ok := goroutineID(g)
		if !ok || boring(g) {
			continue
		}
		stacks[id] = g
	}
	return stacks
}

// goroutineID extracts the numeric id from a "goroutine N [state]:" header.
func goroutineID(stack string) (string, bool) {
	if !strings.HasPrefix(stack, "goroutine ") {
		return "", false
	}
	rest := stack[len("goroutine "):]
	sp := strings.IndexByte(rest, ' ')
	if sp <= 0 {
		return "", false
	}
	return rest[:sp], true
}

// boringFrames are substrings identifying goroutines owned by the
// runtime or the testing harness — never the fault of the suite.
var boringFrames = []string{
	"testing.Main(",
	"testing.(*M).",
	"testing.tRunner(",
	"testing.runTests(",
	"testing.runFuzzing(",
	"runtime.goexit",
	"runtime.gc",
	"runtime.MHeap",
	"runtime/trace.Start",
	"os/signal.signal_recv",
	"os/signal.loop",
	"leakcheck.snapshotStacks",
}

func boring(stack string) bool {
	lines := strings.Split(stack, "\n")
	if len(lines) < 2 {
		return true // header only: goroutine in transition, ignore
	}
	for _, frame := range boringFrames {
		if strings.Contains(stack, frame) {
			return true
		}
	}
	return false
}
