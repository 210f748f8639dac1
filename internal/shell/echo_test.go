package shell

import (
	"errors"
	"sync"
	"testing"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// echoSource is a translator whose source both accepts writes and notifies
// on the written base, as a relational source with a trigger does: each
// successful write comes back as a change notification, its echo.  With
// echo off the test delivers notifications itself through change.  A write
// of fail fails.
type echoSource struct {
	mu   sync.Mutex
	fn   cmi.NotifyFunc
	echo bool
	fail data.Value
}

func (s *echoSource) Site() string                         { return "S" }
func (s *echoSource) Statements() []rule.Rule              { return nil }
func (s *echoSource) List(string) ([]data.ItemName, error) { return nil, nil }
func (s *echoSource) OnFailure(func(cmi.Failure))          {}
func (s *echoSource) Close() error                         { return nil }

func (s *echoSource) Read(data.ItemName) (data.Value, bool, error) {
	return data.NullValue, false, nil
}

func (s *echoSource) Subscribe(_ string, fn cmi.NotifyFunc) (func(), error) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
	return func() {}, nil
}

func (s *echoSource) Write(item data.ItemName, v data.Value) error {
	s.mu.Lock()
	echo, fail := s.echo, !s.fail.IsNull() && s.fail.Equal(v)
	s.mu.Unlock()
	if fail {
		return errors.New("echoSource: write refused")
	}
	if echo {
		s.change(item, v)
	}
	return nil
}

func (s *echoSource) change(item data.ItemName, v data.Value) {
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	fn(item, data.NullValue, v)
}

// TestTranslatorWriteEchoIsSuppressed pins echo suppression: a CM write
// through a translator records W, and the source's notification of that
// same write must not also be recorded as a spontaneous Ws/N pair, while a
// genuine update is.  Suppression counts writes per (item key, value
// literal), so two queued writes of one value swallow exactly two echoes,
// a failed write leaves nothing behind, Float(5) and Int(5) — one literal
// — match, and items whose keys differ never share a count.
func TestTranslatorWriteEchoIsSuppressed(t *testing.T) {
	spec, err := rule.ParseSpecString(`
site S
item a @ S
private seen @ S
rule r: N(a(n), v) ->1s W(seen(n), v)
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	src := &echoSource{echo: true}
	s := New("s", spec, Options{Clock: vclock.NewVirtual(vclock.Epoch), Trace: tr})
	s.AddSite("S", src)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	x, x0 := data.Item("a", data.NewString("x")), data.Item("a", data.NewString("x\x00"))
	count := func(op event.Op, item data.ItemName) int {
		n := 0
		for _, e := range tr.Events() {
			if e.Desc.Op == op && e.Desc.Item.Key() == item.Key() {
				n++
			}
		}
		return n
	}
	expect := func(step string, item data.ItemName, w, spontaneous, pending int) {
		t.Helper()
		s.Drain()
		if got := count(event.OpW, item); got != w {
			t.Errorf("%s: %d W on %s, want %d", step, got, item, w)
		}
		for _, op := range []event.Op{event.OpWs, event.OpN} {
			if got := count(op, item); got != spontaneous {
				t.Errorf("%s: %d %s on %s, want %d", step, got, op, item, spontaneous)
			}
		}
		s.pendMu.Lock()
		got := len(s.pending)
		s.pendMu.Unlock()
		if got != pending {
			t.Errorf("%s: %d pending entries, want %d", step, got, pending)
		}
	}

	s.RequestWrite(x, data.NewInt(5))
	expect("CM write echoed at once", x, 1, 0, 0)
	src.change(x, data.NewInt(5))
	expect("genuine update to the written value", x, 1, 1, 0)

	src.echo = false
	s.RequestWrite(x, data.NewInt(7))
	s.RequestWrite(x, data.NewInt(7))
	expect("two queued writes of one value", x, 3, 1, 1)
	src.change(x, data.NewInt(7))
	src.change(x, data.NewInt(7))
	expect("their two echoes", x, 3, 1, 0)
	src.change(x, data.NewInt(7))
	expect("a third, genuine update", x, 3, 2, 0)

	src.fail = data.NewInt(9)
	s.RequestWrite(x, data.NewInt(9))
	expect("failed write", x, 3, 2, 0)
	src.change(x, data.NewInt(9))
	expect("update to the value the failed write carried", x, 3, 3, 0)

	s.RequestWrite(x, data.NewFloat(5))
	expect("Float(5) write", x, 4, 3, 1)
	src.change(x, data.NewInt(5))
	expect("its Int(5) echo", x, 4, 3, 0)

	s.RequestWrite(x, data.NewInt(1))
	s.RequestWrite(x0, data.NewInt(1))
	expect("writes to a(\"x\") and a(\"x\\x00\")", x0, 1, 0, 2)
	src.change(x0, data.NewInt(1))
	src.change(x0, data.NewInt(1))
	expect("a(\"x\\x00\") echo, then a genuine update", x0, 1, 1, 1)
	src.change(x, data.NewInt(1))
	expect("a(\"x\") echo", x, 5, 3, 0)
}

// TestPrivateItemAtTranslatorSite: a CM-private item lives in the shell
// even at a site whose translator could read and write it.  A rule's
// WR(cache(n), v) sets the private copy, as RequestWrite does, and a
// rule's RR(seen(n)) answers with the private value, as a condition reads
// it; none of them reaches the translator.
func TestPrivateItemAtTranslatorSite(t *testing.T) {
	spec, err := rule.ParseSpecString(`
site S
item a @ S
item b @ S
private cache @ S
private seen @ S
private agree @ S
rule w: N(a(n), v) ->1s WR(cache(n), v)
rule r: N(a(n), v) ->1s RR(seen(n))
rule c: N(b(n), v) && cache(n) = v && seen(n) = 42 ->1s W(agree(n), v)
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	src := &echoSource{}
	s := New("s", spec, Options{Clock: vclock.NewVirtual(vclock.Epoch), Trace: tr})
	s.AddSite("S", src)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	x := data.NewString("x")
	s.WriteAux(data.Item("seen", x), data.NewInt(42))

	src.change(data.Item("a", x), data.NewInt(5))
	s.Drain()
	if v, _ := s.ReadAux(data.Item("cache", x)); !v.Equal(data.NewInt(5)) {
		t.Errorf("after the rule's WR, private cache(\"x\") = %s, want 5", v)
	}
	has := func(want string) bool {
		for _, e := range tr.Events() {
			if e.Desc.String() == want {
				return true
			}
		}
		return false
	}
	for _, want := range []string{`W(cache("x"), 5)`, `R(seen("x"), 42)`} {
		if !has(want) {
			t.Errorf("trace has no %s", want)
		}
	}

	// A condition reads the same private values the rules wrote and read.
	src.change(data.Item("b", x), data.NewInt(5))
	s.Drain()
	if v, _ := s.ReadAux(data.Item("agree", x)); !v.Equal(data.NewInt(5)) {
		t.Errorf("condition over cache(\"x\") and seen(\"x\") did not hold: agree = %s", v)
	}

	// RequestWrite lands in the same private copy.
	s.RequestWrite(data.Item("cache", x), data.NewInt(7))
	s.Drain()
	if v, _ := s.ReadAux(data.Item("cache", x)); !v.Equal(data.NewInt(7)) {
		t.Errorf("after RequestWrite, private cache(\"x\") = %s, want 7", v)
	}
}
