package shell

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// cascadeSpec is the engine_rules rule shape on one family: an update of
// X copies to Y, and through a condition that reads Z on to Z, so one
// spontaneous write records three events and evaluates two conditions.
// With split set, X lives at site A and Y, Z at site B, so the first
// firing crosses shells.
func cascadeSpec(t testing.TB, split bool) *rule.Spec {
	t.Helper()
	yz := "S"
	sites := "site S\n"
	if split {
		yz, sites = "B", "site S\nsite B\n"
	}
	sp, err := rule.ParseSpecString(sites + "private X @ S\nprivate Y @ " + yz + "\nprivate Z @ " + yz + `
rule a: Ws(X, b) && b > 0 ->5s W(Y, b)
rule c: W(Y, b) && b + 1 > Z ->5s W(Z, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// cascadeShell starts a serial shell hosting site on a virtual clock,
// with the cascade's items at 0.
func cascadeShell(t testing.TB, id, site string, sp *rule.Spec, clk vclock.Clock) *Shell {
	t.Helper()
	s := New(id, sp, Options{Clock: clk, Trace: trace.New(nil)})
	s.AddSite(site, nil)
	for _, base := range []string{"X", "Y", "Z"} {
		if sp.Private[base] == site {
			s.WriteAux(data.Item(base), data.NewInt(0))
		}
	}
	return s
}

// allocsPerUpdate drives n updates of X through update and returns the
// heap allocations and bytes per update, after a warm-up that grows the
// queue ring and the trace's slices to their working size.
func allocsPerUpdate(n int, update func(i int)) (allocs, bytes float64) {
	for i := 0; i < n; i++ {
		update(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := n; i < 2*n; i++ {
		update(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestEngineAllocsPerUpdate pins what one Spontaneous update and its
// three-event cascade cost the engine.  The trace keeps one event per
// record by design; every other step — the posted update, each match and
// firing, the bindings it carries — allocates nothing on the local path.
// The bus case prices a firing that crosses shells: its bindings travel
// in a map the receiver owns.
func TestEngineAllocsPerUpdate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 4000
	t.Run("local", func(t *testing.T) {
		clk := vclock.NewVirtual(vclock.Epoch)
		s := cascadeShell(t, "s", "S", cascadeSpec(t, false), clk)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		x := data.Item("X")
		allocs, bytes := allocsPerUpdate(n, func(i int) {
			s.Spontaneous(x, data.NewInt(int64(i)), data.NewInt(int64(i+1)))
			clk.Advance(time.Millisecond)
		})
		if got := s.Trace().Len(); got != 3*2*n {
			t.Fatalf("%d updates recorded %d events, want exactly %d", 2*n, got, 3*2*n)
		}
		t.Logf("local: %.2f allocs, %.0f B per update", allocs, bytes)
		if allocs > 3.1 || bytes > 1100 {
			t.Errorf("local update costs %.2f allocs and %.0f B, budget 3.1 and 1100", allocs, bytes)
		}
	})
	t.Run("bus", func(t *testing.T) {
		clk := vclock.NewVirtual(vclock.Epoch)
		sp := cascadeSpec(t, true)
		bus := transport.NewBus(clk, 0)
		sa := cascadeShell(t, "sa", "S", sp, clk)
		sb := cascadeShell(t, "sb", "B", sp, clk)
		sa.Route("B", "sb")
		sb.Route("S", "sa")
		for _, s := range []*Shell{sa, sb} {
			if err := s.Attach(bus); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []*Shell{sa, sb} {
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
		}
		x := data.Item("X")
		allocs, bytes := allocsPerUpdate(n, func(i int) {
			sa.Spontaneous(x, data.NewInt(int64(i)), data.NewInt(int64(i+1)))
			clk.Advance(time.Millisecond)
		})
		if got := sa.Trace().Len() + sb.Trace().Len(); got != 3*2*n {
			t.Fatalf("%d updates recorded %d events, want exactly %d", 2*n, got, 3*2*n)
		}
		if v, _ := sb.ReadAux(data.Item("Z")); !v.Equal(data.NewInt(2 * n)) {
			t.Fatalf("Z = %s after %d updates", v, 2*n)
		}
		// Over the local cost: the bindings map the receiver owns, the
		// message's delivery timer and its slot in the link queue.
		t.Logf("bus: %.2f allocs, %.0f B per update", allocs, bytes)
		if allocs > 6.1 || bytes > 1900 {
			t.Errorf("bus update costs %.2f allocs and %.0f B, budget 6.1 and 1900", allocs, bytes)
		}
	})
}

// capturingNet wraps a Network and keeps every fire message's bindings
// map as the sending shell handed it over.
type capturingNet struct {
	transport.Network
	mu    sync.Mutex
	fires []event.Bindings
}

func (n *capturingNet) Join(id string, recv func(transport.Message)) (transport.Endpoint, error) {
	ep, err := n.Network.Join(id, recv)
	if err != nil {
		return nil, err
	}
	return capturingEndpoint{ep, n}, nil
}

type capturingEndpoint struct {
	transport.Endpoint
	n *capturingNet
}

func (e capturingEndpoint) Send(to string, m transport.Message) error {
	if m.Kind == "fire" {
		e.n.mu.Lock()
		e.n.fires = append(e.n.fires, m.BindingsVal)
		e.n.mu.Unlock()
	}
	return e.Endpoint.Send(to, m)
}

func sameMap(a, b event.Bindings) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestRemoteFireBindingsAreNotScratch: one event matches a local rule and
// a remote rule that bind the same variable.  The local firing borrows
// the match scratch; the remote one must hand the receiver a map of its
// own, because the receiver writes "now" into it on another goroutine
// while the sender goes on matching into the scratch (the race detector
// sees any sharing).
func TestRemoteFireBindingsAreNotScratch(t *testing.T) {
	sp, err := rule.ParseSpecString(`site S
site B
private X @ S
private Y @ S
private W @ B
private T @ B
rule l: Ws(X, b) ->5s W(Y, b)
rule r: Ws(X, b) ->5s W(W, b)
rule k: W(W, b) ->5s W(T, now)
`)
	if err != nil {
		t.Fatal(err)
	}
	net := &capturingNet{Network: transport.NewBus(vclock.Real{}, 0)}
	tr := trace.New(nil)
	sa := New("sa", sp, Options{Trace: tr})
	sa.AddSite("S", nil)
	sa.Route("B", "sb")
	sb := New("sb", sp, Options{Trace: tr})
	sb.AddSite("B", nil)
	sb.Route("S", "sa")
	for _, s := range []*Shell{sa, sb} {
		if err := s.Attach(net); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	const n = 200
	for i := 1; i <= n; i++ {
		sa.Spontaneous(data.Item("X"), data.NewInt(int64(i-1)), data.NewInt(int64(i)))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sa.Drain()
		sb.Drain()
		if v, _ := sb.ReadAux(data.Item("W")); v.Equal(data.NewInt(n)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("remote firings never all arrived")
		}
		time.Sleep(time.Millisecond)
	}
	sb.Drain()
	sa.Stop()
	sb.Stop()
	if v, _ := sa.ReadAux(data.Item("Y")); !v.Equal(data.NewInt(n)) {
		t.Fatalf("Y = %s, want %d", v, n)
	}
	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.fires) != n {
		t.Fatalf("%d remote firings sent, want %d", len(net.fires), n)
	}
	for i, b := range net.fires {
		if sameMap(b, sa.scratchB) || sameMap(b, sa.execB) {
			t.Fatalf("firing %d's bindings alias the sender's scratch", i)
		}
		if !b["b"].Equal(data.NewInt(int64(i + 1))) {
			t.Fatalf("firing %d carried b = %s, want %d", i, b["b"], i+1)
		}
		if _, ok := b["now"]; !ok {
			t.Fatalf("firing %d: the receiver never bound now in the map it was handed", i)
		}
	}
}

// TestFiringPastInlineBindings fires a rule binding one more parameter
// than a task carries inline, both inline-dispatched and through
// FireDelay's timer.  The same event then matches a second rule that
// binds other names into the match scratch, and a one-parameter rule
// fires in between updates: neither may leak into the wide firing.
func TestFiringPastInlineBindings(t *testing.T) {
	params := make([]string, inlineBindings)
	for i := range params {
		params[i] = fmt.Sprintf("k%d", i)
	}
	args := strings.Join(params, ", ")
	src := fmt.Sprintf(`site S
private X @ S
private Y @ S
private U @ S
private V @ S
private E @ S
rule wide: Ws(X(%[1]s), b) ->5s W(Y(%[1]s), b)
rule echo: Ws(X(%[1]s), c) ->5s W(E, c)
rule narrow: Ws(U, b) ->5s W(V, b)
`, args)
	sp, err := rule.ParseSpecString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sp.Rules[0].LHS.Params()); got != inlineBindings+1 {
		t.Fatalf("wide rule binds %d parameters, want %d", got, inlineBindings+1)
	}
	for _, delay := range []time.Duration{0, 10 * time.Millisecond} {
		t.Run(fmt.Sprintf("FireDelay=%v", delay), func(t *testing.T) {
			clk := vclock.NewVirtual(vclock.Epoch)
			s := New("s", sp, Options{Clock: clk, Trace: trace.New(nil), FireDelay: delay})
			s.AddSite("S", nil)
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			const n = 20
			for i := 1; i <= n; i++ {
				key := make([]data.Value, inlineBindings)
				for j := range key {
					key[j] = data.NewInt(int64(i*10 + j))
				}
				s.Spontaneous(data.Item("X", key...), data.NullValue, data.NewInt(int64(i)))
				s.Spontaneous(data.Item("U"), data.NullValue, data.NewInt(int64(-i)))
				clk.Advance(time.Second)
				if v, _ := s.ReadAux(data.Item("Y", key...)); !v.Equal(data.NewInt(int64(i))) {
					t.Fatalf("update %d: Y%v = %s, want %d", i, key, v, i)
				}
				if v, _ := s.ReadAux(data.Item("E")); !v.Equal(data.NewInt(int64(i))) {
					t.Fatalf("update %d: E = %s, want %d", i, v, i)
				}
				if v, _ := s.ReadAux(data.Item("V")); !v.Equal(data.NewInt(int64(-i))) {
					t.Fatalf("update %d: V = %s, want %d", i, v, -i)
				}
			}
			if got := s.Trace().Len(); got != 5*n {
				t.Fatalf("trace has %d events, want %d", got, 5*n)
			}
			if vs := traceCheck(s, sp.Rules); len(vs) != 0 {
				t.Fatalf("violations: %v", vs)
			}
		})
	}
}

// TestEveryTaskKindFromDrainerRunsInPostingOrder posts one task of each
// kind — a thunk, a spontaneous write, an inbound firing, a notification
// and a write request — from inside a running task.  None runs inside
// it, and afterwards they run in the order they were posted.
func TestEveryTaskKindFromDrainerRunsInPostingOrder(t *testing.T) {
	sp, err := rule.ParseSpecString(`site S
private X @ S
private F @ S
private M @ S
private P @ S
private Q @ S
rule f: N(Q, b) ->1s W(F, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	s := New("s", sp, Options{Clock: clk, Trace: trace.New(nil)})
	s.AddSite("S", nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	events := func() int { return s.Trace().Len() }
	first, last, inside := -1, -1, -1
	s.Do(func() {
		s.Do(func() { first = events() })
		s.Spontaneous(data.Item("X"), data.NullValue, data.NewInt(1))
		s.Receive(transport.Message{
			Kind: "fire", Rule: "f", From: "peer",
			BindingsVal: event.Bindings{"b": data.NewInt(2)},
			Trigger:     transport.EventRef{Site: "S", Seq: 99, Time: clk.Now(), Desc: "N(Q, 2)"},
		})
		s.notifyLocal("S", data.Item("M"), data.NullValue, data.NewInt(3))
		s.RequestWrite(data.Item("P"), data.NewInt(4))
		s.Do(func() { last = events() })
		inside = events()
	})
	s.Drain()
	if inside != 0 {
		t.Fatalf("%d events recorded inside the posting task, want 0", inside)
	}
	var got []string
	for _, e := range s.Trace().Events() {
		got = append(got, e.Desc.String())
	}
	want := []string{"Ws(X, 1)", "W(F, 2)", "Ws(M, 3)", "N(M, 3)", "WR(P, 4)", "W(P, 4)"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("trace order\n got %v\nwant %v", got, want)
	}
	if first != 0 || last != len(want) {
		t.Fatalf("thunks ran after %d and %d events, want 0 and %d", first, last, len(want))
	}
}
