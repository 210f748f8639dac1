package wire

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cmtk/internal/ris"
)

// echoHandler replies to "echo" with the same fields, supports "pushme"
// which triggers a server push, and errors on anything else.
type echoHandler struct{}

type echoSession struct {
	push func(Message) error
}

func (echoHandler) NewSession(push func(Message) error) (Session, error) {
	return &echoSession{push: push}, nil
}

func (s *echoSession) Handle(m Message) Message {
	switch m.Type {
	case "echo":
		r := Reply(m)
		r.F = m.F
		return r
	case "pushme":
		go s.push(Message{Type: "event", F: map[string]string{"n": m.Field("n")}})
		return Reply(m)
	case "notfound":
		return ErrorReply(m, fmt.Errorf("thing: %w", ris.ErrNotFound))
	case "slow":
		time.Sleep(200 * time.Millisecond)
		return Reply(m)
	default:
		return ErrorReply(m, errors.New("boom"))
	}
}

func (s *echoSession) Close() {}

func startServer(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestRequestResponse(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Do(Message{Type: "echo", F: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Field("k") != "v" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestErrorTaxonomySurvivesWire(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do(Message{Type: "notfound"})
	if !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	_, err = c.Do(Message{Type: "bogus"})
	if err == nil || errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerPush(t *testing.T) {
	srv := startServer(t)
	got := make(chan Message, 1)
	c, err := Dial(srv.Addr(), func(m Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(Message{Type: "pushme", F: map[string]string{"n": "42"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Type != "event" || m.Field("n") != "42" {
			t.Fatalf("push = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push never arrived")
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			reply, err := c.Do(Message{Type: "echo", F: map[string]string{"i": key}})
			if err != nil {
				errs <- err
				return
			}
			if reply.Field("i") != key {
				errs <- fmt.Errorf("mismatched reply for %s", key)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTimeout(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr(), nil, WithRequestTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do(Message{Type: "slow"})
	if !ris.IsTransient(err) {
		t.Fatalf("timeout err = %v", err)
	}
}

func TestServerCloseUnblocksClient(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	_, err = c.Do(Message{Type: "echo"})
	if err == nil {
		t.Fatal("Do succeeded after server close")
	}
}

func TestDialFailure(t *testing.T) {
	_, err := Dial("127.0.0.1:1", nil) // nothing listens on port 1
	if err == nil {
		t.Fatal("Dial succeeded")
	}
	if !ris.IsTransient(err) {
		t.Fatalf("dial err not transient: %v", err)
	}
}

func TestEncodeDecodeError(t *testing.T) {
	cases := []error{
		fmt.Errorf("x: %w", ris.ErrNotFound),
		fmt.Errorf("x: %w", ris.ErrReadOnly),
		fmt.Errorf("x: %w", ris.ErrUnsupported),
		ris.Transient(errors.New("x")),
		errors.New("plain"),
	}
	for _, err := range cases {
		got := DecodeError(EncodeError(err))
		switch {
		case errors.Is(err, ris.ErrNotFound) && !errors.Is(got, ris.ErrNotFound):
			t.Errorf("notfound lost: %v", got)
		case errors.Is(err, ris.ErrReadOnly) && !errors.Is(got, ris.ErrReadOnly):
			t.Errorf("readonly lost: %v", got)
		case errors.Is(err, ris.ErrUnsupported) && !errors.Is(got, ris.ErrUnsupported):
			t.Errorf("unsupported lost: %v", got)
		case ris.IsTransient(err) && !ris.IsTransient(got):
			t.Errorf("transient lost: %v", got)
		}
	}
	if DecodeError("") != nil || EncodeError(nil) != "" {
		t.Error("nil handling broken")
	}
}

func TestWithField(t *testing.T) {
	m := Message{Type: "x"}
	m2 := m.WithField("a", "1").WithField("b", "2")
	if m2.Field("a") != "1" || m2.Field("b") != "2" {
		t.Fatalf("m2 = %+v", m2)
	}
	if m.Field("a") != "" {
		t.Fatal("WithField mutated receiver")
	}
}

func TestDialOptions(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(srv.Addr(), nil,
		WithDialTimeout(time.Second),
		WithRequestTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.timeout != 20*time.Millisecond {
		t.Fatalf("request timeout = %v", c.timeout)
	}
	// The configured request timeout governs Do: "slow" sleeps 200ms.
	if _, err := c.Do(Message{Type: "slow"}); !ris.IsTransient(err) {
		t.Fatalf("timeout err = %v", err)
	}
	// Defaults survive when no options are given.
	c2, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.timeout != 10*time.Second {
		t.Fatalf("default request timeout = %v", c2.timeout)
	}
}
