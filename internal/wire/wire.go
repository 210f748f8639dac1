// Package wire provides the framing used by every network protocol in the
// toolkit — the shell mesh, the RIS servers and their notify pushes: one
// binary envelope per message over TCP, with request/response, one-way
// client frames (the mesh) and server push (remote notify interfaces).
// Messages on one connection are processed strictly in order, which is
// the in-order delivery assumption of Appendix A.2 property 7 made concrete.
//
// A frame is a 4-byte big-endian payload length (at most MaxFrame) and
// the payload: a format byte, a uvarint ID, then Type, Err, the F pairs in
// ascending key order, Cols, Rows and Body, each string or byte field a
// uvarint length and its bytes.  The encoding is canonical — decoding
// accepts exactly what encoding produces — and Body is opaque here: the
// shell mesh carries its message batches in it (package transport).  A
// frame that does not decode is rejected with an error wrapping
// ErrFormat, ErrMalformed or ErrTooLarge, never a panic; a JSON frame from
// a build that predates the binary envelope is an ErrFormat.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"cmtk/internal/ris"
)

// MaxFrame bounds a single message to keep a corrupt peer from forcing
// huge allocations.
const MaxFrame = 8 << 20

// Message is the single envelope used by all toolkit protocols.  Type
// names the operation (request) or reply kind; F carries scalar fields;
// Cols/Rows carry tabular payloads with values rendered as rule-language
// literals; Body carries a protocol's own binary encoding.  Empty and nil
// collections are not distinguished on the wire: they decode as nil.
type Message struct {
	ID   uint64
	Type string
	Err  string
	F    map[string]string
	Cols []string
	Rows [][]string
	// Body is opaque to this package.  On a message returned by Conn.Read
	// it aliases the connection's read buffer and is valid only until the
	// next Read; a Session's Handle may read it until it returns, and
	// Client copies it before handing a message on.
	Body []byte
}

// Field reads one scalar field, defaulting to "".
func (m Message) Field(name string) string { return m.F[name] }

// WithField returns a copy with the field set.
func (m Message) WithField(name, value string) Message {
	f := make(map[string]string, len(m.F)+1)
	for k, v := range m.F {
		f[k] = v
	}
	f[name] = value
	m.F = f
	return m
}

// Reply builds a success reply to a request.
func Reply(req Message) Message { return Message{ID: req.ID, Type: "ok"} }

// Error code prefixes carried in Message.Err so sentinel errors survive
// the wire.
const (
	codeNotFound    = "notfound: "
	codeReadOnly    = "readonly: "
	codeUnsupported = "unsupported: "
	codeTransient   = "transient: "
)

// ErrorReply builds an error reply, encoding the error taxonomy.
func ErrorReply(req Message, err error) Message {
	return Message{ID: req.ID, Type: "error", Err: EncodeError(err)}
}

// EncodeError renders an error with its taxonomy prefix.
func EncodeError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ris.ErrNotFound):
		return codeNotFound + err.Error()
	case errors.Is(err, ris.ErrReadOnly):
		return codeReadOnly + err.Error()
	case errors.Is(err, ris.ErrUnsupported):
		return codeUnsupported + err.Error()
	case ris.IsTransient(err):
		return codeTransient + err.Error()
	default:
		return err.Error()
	}
}

// DecodeError reconstructs a sentinel-wrapped error from a wire string.
func DecodeError(s string) error {
	switch {
	case s == "":
		return nil
	case strings.HasPrefix(s, codeNotFound):
		return fmt.Errorf("%s: %w", strings.TrimPrefix(s, codeNotFound), ris.ErrNotFound)
	case strings.HasPrefix(s, codeReadOnly):
		return fmt.Errorf("%s: %w", strings.TrimPrefix(s, codeReadOnly), ris.ErrReadOnly)
	case strings.HasPrefix(s, codeUnsupported):
		return fmt.Errorf("%s: %w", strings.TrimPrefix(s, codeUnsupported), ris.ErrUnsupported)
	case strings.HasPrefix(s, codeTransient):
		return ris.Transient(errors.New(strings.TrimPrefix(s, codeTransient)))
	default:
		return errors.New(s)
	}
}

// Conn frames messages over a byte stream.  Reads and writes may proceed
// concurrently; writes are serialized internally, and Read must be called
// from one goroutine at a time.  Each side encodes into and decodes from a
// buffer the Conn keeps, so a steady stream of frames allocates none.
type Conn struct {
	rw io.ReadWriteCloser

	wmu  sync.Mutex
	wbuf []byte   // frame being written, reused under wmu
	keys []string // F-key sort scratch, reused under wmu

	rhdr [4]byte
	rbuf []byte // backs the last frame read; its Body aliases it
	rtyp string // the last frame's Type, reused when it repeats
}

// maxRetained bounds the read and write buffers a Conn keeps between
// frames; a larger frame uses a buffer of its own.
const maxRetained = 64 << 10

// NewConn wraps a stream.
func NewConn(rw io.ReadWriteCloser) *Conn { return &Conn{rw: rw} }

// Read reads the next message.  It allocates at most the frame's claimed
// length, which is capped at MaxFrame, plus the decoded fields.
func (c *Conn) Read() (Message, error) {
	if _, err := io.ReadFull(c.rw, c.rhdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(c.rhdr[:])
	if n > MaxFrame {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	var buf []byte
	if n <= maxRetained {
		if cap(c.rbuf) < int(n) {
			c.rbuf = make([]byte, n)
		}
		buf = c.rbuf[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(c.rw, buf); err != nil {
		return Message{}, err
	}
	m, err := decodeMessage(buf, c.rtyp)
	if err != nil {
		return Message{}, err
	}
	c.rtyp = m.Type
	return m, nil
}

// Write sends a message as one frame.
func (c *Conn) Write(m Message) error { return c.writeWithin(m, 0) }

// writeWithin bounds the write by d when d > 0 and the stream takes
// deadlines; a write cut off mid-frame leaves the stream unusable.
func (c *Conn) writeWithin(m Message, d time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if dl, ok := c.rw.(interface{ SetWriteDeadline(time.Time) error }); ok && d > 0 {
		if err := dl.SetWriteDeadline(time.Now().Add(d)); err != nil {
			return err
		}
		defer dl.SetWriteDeadline(time.Time{})
	}
	buf := append(c.wbuf[:0], 0, 0, 0, 0)
	buf, c.keys = appendMessage(buf, m, c.keys)
	if cap(buf) <= maxRetained {
		c.wbuf = buf
	}
	n := len(buf) - 4
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	_, err := c.rw.Write(buf)
	return err
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }

// Session handles one client connection on a server.
type Session interface {
	// Handle processes one request and returns the reply.  Requests on one
	// connection are handled sequentially in arrival order; m.Body is
	// valid only until Handle returns.  A one-way frame (ID 0) gets no
	// reply: an error reply to one closes the connection instead.
	Handle(m Message) Message
	// Close releases per-connection state (e.g. cancels watchers).
	Close()
}

// Handler creates sessions.  push sends an unsolicited message (ID 0) to
// the client and may be called from any goroutine until Close.
type Handler interface {
	NewSession(push func(Message) error) (Session, error)
}

// Server accepts connections and dispatches messages to sessions.
type Server struct {
	ln        net.Listener
	handler   Handler
	mu        sync.Mutex
	conns     map[*Conn]struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Serve starts a server on addr ("" or ":0" for an ephemeral port).
func Serve(addr string, handler Handler) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, handler: handler, conns: map[*Conn]struct{}{}, done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all connections.  It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				// Transient accept failure; back off briefly.
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		conn := NewConn(nc)
		s.mu.Lock()
		select {
		case <-s.done:
			// Close already closed the connections it knew of; one
			// accepted after that would block its serveConn, and Close's
			// wait, forever.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn *Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sess, err := s.handler.NewSession(func(m Message) error {
		m.ID = 0
		return conn.Write(m)
	})
	if err != nil {
		conn.Write(Message{Type: "error", Err: EncodeError(err)})
		return
	}
	defer sess.Close()
	for {
		m, err := conn.Read()
		if err != nil {
			return
		}
		reply := sess.Handle(m)
		if m.ID == 0 {
			// A one-way frame gets no reply.  What its sender sends next may
			// build on it, so a rejection closes the connection instead.
			if reply.Type == "error" {
				return
			}
			continue
		}
		reply.ID = m.ID
		if reply.Type == "" {
			reply.Type = "ok"
		}
		if err := conn.Write(reply); err != nil {
			return
		}
	}
}

// Client is a synchronous request/response client with support for
// one-way frames and server-push messages.
type Client struct {
	conn    *Conn
	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Message
	onPush  func(Message)
	closed  chan struct{}
	err     error
	timeout time.Duration
}

// DialConfig holds the tunable connection parameters; zero fields take
// the defaults (5s dial, 10s per request).
type DialConfig struct {
	DialTimeout    time.Duration
	RequestTimeout time.Duration
}

// DialOption customises a Dial call.
type DialOption func(*DialConfig)

// WithDialTimeout bounds the TCP connection attempt.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *DialConfig) { c.DialTimeout = d }
}

// WithRequestTimeout bounds each request/response round trip, and the
// write of each one-way frame (Client.Send).
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *DialConfig) { c.RequestTimeout = d }
}

// Dial connects to a toolkit server.  onPush, when non-nil, receives
// unsolicited messages (notifications) in arrival order; it runs on the
// client's read goroutine, so it must not block on the same client.
func Dial(addr string, onPush func(Message), opts ...DialOption) (*Client, error) {
	cfg := DialConfig{DialTimeout: 5 * time.Second, RequestTimeout: 10 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, ris.Transient(err))
	}
	c := &Client{
		conn:    NewConn(nc),
		pending: map[uint64]chan Message{},
		onPush:  onPush,
		closed:  make(chan struct{}),
		timeout: cfg.RequestTimeout,
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	for {
		m, err := c.conn.Read()
		if err != nil {
			c.mu.Lock()
			c.err = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			select {
			case <-c.closed:
			default:
				close(c.closed)
			}
			return
		}
		if m.Body != nil {
			// The body aliases the connection's read buffer, which the next
			// Read overwrites while a waiter or push handler may still hold it.
			m.Body = bytes.Clone(m.Body)
		}
		if m.ID == 0 {
			if c.onPush != nil {
				c.onPush(m)
			}
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[m.ID]
		if ok {
			delete(c.pending, m.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- m
		}
	}
}

// Do sends a request and waits for its reply.  Protocol errors in the
// reply are decoded back to taxonomy errors.
func (c *Client) Do(m Message) (Message, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Message{}, ris.Transient(err)
	}
	c.nextID++
	m.ID = c.nextID
	ch := make(chan Message, 1)
	c.pending[m.ID] = ch
	c.mu.Unlock()
	if err := c.conn.Write(m); err != nil {
		c.mu.Lock()
		delete(c.pending, m.ID)
		c.mu.Unlock()
		return Message{}, ris.Transient(err)
	}
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case reply, ok := <-ch:
		if !ok {
			return Message{}, fmt.Errorf("wire: connection lost: %w", ris.ErrUnavailable)
		}
		if reply.Type == "error" {
			return reply, DecodeError(reply.Err)
		}
		return reply, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, m.ID)
		c.mu.Unlock()
		return Message{}, ris.Transient(fmt.Errorf("wire: request %s timed out", m.Type))
	}
}

// Send writes a one-way message: it goes out with ID 0, the server handles
// it in order with the requests around it and sends no reply, and a
// rejection closes the connection.  The write is bounded by the request
// timeout, so a peer that stops reading fails it as a timed-out Do
// would.  After an error the connection must be closed.
func (c *Client) Send(m Message) error {
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	if err == nil {
		m.ID = 0
		err = c.conn.writeWithin(m, c.timeout)
	}
	return ris.Transient(err)
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
