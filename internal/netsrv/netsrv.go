// Package netsrv is the connection server under every network front
// end: the SMTP and POP3 servers of §8.2 and the replication frame
// server. It is unverified code every networked request crosses, so it
// exists once. It owns the accept loop, the connection cap and the
// refusal line, panic containment, the set of live connections with
// Close and Shutdown over it, and — for the line protocols — the pooled,
// deadline-armed reader and writer and the command loop of one
// connection. A front end supplies only its protocol: a refusal line and
// a session function.
package netsrv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// Server is one listener and the connections accepted on it.
type Server struct {
	// ReadTimeout and WriteTimeout bound each command read and each
	// reply flush on a Conn; zero means no deadline. A peer that stalls
	// longer loses its connection rather than pinning a handler
	// goroutine.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; excess connections
	// are answered with the refusal line and closed. Zero means
	// unlimited.
	MaxConns int

	refusal string // with its CRLF; "" closes silently
	session func(net.Conn)
	metrics func() *Metrics

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*Conn // a raw session's entry stays nil
	closed bool
	wg     sync.WaitGroup
}

// New builds a server that runs session on each accepted connection, on
// its own goroutine, and closes the connection when session returns. A
// connection it cannot serve (at MaxConns, or shutting down) is sent
// refusal and closed; an empty refusal closes it silently. metrics is
// asked once per Serve and once per NewConn, so the owner may set its
// metrics after New; nil means none.
func New(refusal string, session func(net.Conn), metrics func() *Metrics) *Server {
	if metrics == nil {
		metrics = func() *Metrics { return nil }
	}
	if refusal != "" {
		refusal += "\r\n"
	}
	return &Server{refusal: refusal, session: session, metrics: metrics, conns: map[net.Conn]*Conn{}}
}

// Serve accepts connections on ln until Close/Shutdown. It blocks until
// every session has returned, and returns nil after a deliberate stop.
// After Close it closes ln and returns at once.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ln.Close()
	}
	s.ln = ln
	s.mu.Unlock()
	m := s.metrics()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.closed {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			m.connRefused()
			s.refuse(conn)
			continue
		}
		m.connOpened()
		go s.serve(conn, m)
	}
}

func (s *Server) serve(conn net.Conn, m *Metrics) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	defer m.connClosed()
	// An unverified protocol handler must not take the whole server
	// down: a panic costs only this connection, and the session's own
	// defers (POP3's mailbox Unlock) have run by the time it gets here.
	defer func() {
		if r := recover(); r != nil {
			m.panicked()
		}
	}()
	growStack()
	s.session(conn)
}

// growStack grows a new session goroutine's stack, two frames deep, to
// about what serving a request reaches: the store reads a directory
// into an 8 KiB array on the stack. Grown there instead, deep in a
// pickup, the runtime copies the stack and re-points every frame of the
// session's call chain: 3 % of the CPU samples of the mail-net
// benchmark (GOMAXPROCS 1, 2 vCPUs), against 0.5 % grown here.
//
//go:noinline
func growStack() byte {
	var frame [12 << 10]byte
	return last(frame[:])
}

// last keeps growStack's frame from being optimised away.
//
//go:noinline
func last(b []byte) byte { return b[len(b)-1] }

// track registers conn, refusing when at capacity or shutting down. The
// WaitGroup is raised under mu so that it cannot race Shutdown's Wait.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || (s.MaxConns > 0 && len(s.conns) >= s.MaxConns) {
		return false
	}
	s.conns[conn] = nil
	s.wg.Add(1)
	return true
}

// untrack forgets conn once its session has returned, panics included,
// and hands the session's Conn back to the pool.
func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	c := s.conns[conn]
	delete(s.conns, conn)
	s.mu.Unlock()
	if c != nil {
		c.release()
	}
}

// refuse answers a connection the server cannot serve right now with
// the protocol's try-again-later line instead of a silent close.
func (s *Server) refuse(conn net.Conn) {
	if s.refusal != "" {
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		io.WriteString(conn, s.refusal)
	}
	conn.Close()
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:2525") and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Close stops accepting connections. In-flight sessions keep running;
// use Shutdown to wait for (or cut off) them.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// Shutdown closes the listener and waits for in-flight sessions to
// finish. If ctx expires first the remaining connections are severed —
// each session then fails its next read or write and returns through
// its defers — and ctx's error is returned once they have.
func (s *Server) Shutdown(ctx context.Context) error {
	s.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Addr returns the listener address (nil before Serve), for tests.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Conn is one line-protocol connection: a buffered writer whose Flush
// arms the write deadline, and a line reader that arms the read
// deadline. A reply is written into the buffer and leaves in one Flush,
// so one that fits the buffer is one write on the connection.
//
// A served connection's Conn — the reader, the writer and their
// buffers — comes from a pool and goes back to it when the session
// returns, panics included, reset so that nothing it had buffered or
// not yet flushed reaches the next connection.
type Conn struct {
	bufio.Writer
	r    bufio.Reader
	conn net.Conn
	srv  *Server
	m    *Metrics
}

var connPool = sync.Pool{New: func() any { return new(Conn) }}

// ErrLineTooLong is Commands' error for a command line that does not
// fit the reader's buffer (4 KiB: RFC 5321 allows 512 bytes, RFC 1939
// 255). The session should answer it and end: the rest of the line is
// still unread.
var ErrLineTooLong = errors.New("netsrv: command line too long")

// NewConn wraps conn for a session function. Sessions build it
// themselves so that a test can drive one over a pipe; a Conn for a
// connection the server did not accept is never pooled again.
func (s *Server) NewConn(conn net.Conn) *Conn {
	c := connPool.Get().(*Conn)
	c.conn, c.srv, c.m = conn, s, s.metrics()
	c.Writer.Reset(conn)
	c.r.Reset(conn)
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		s.conns[conn] = c
	}
	s.mu.Unlock()
	return c
}

// release drops whatever c still buffers, unread or unflushed, and
// pools it.
func (c *Conn) release() {
	c.Writer.Reset(nil)
	c.r.Reset(nil)
	c.conn, c.srv, c.m = nil, nil, nil
	connPool.Put(c)
}

// ReadLine reads one line, terminator included, under ReadTimeout. The
// line is the reader's buffer, valid until the next read. A line longer
// than the buffer comes in pieces: each but the last ends without '\n'
// and comes with bufio.ErrBufferFull.
//
// The read deadline is re-armed only when no complete line is buffered:
// a read the buffer answers cannot block, and a read that can is always
// under a fresh ReadTimeout, so a peer silent that long is cut off.
func (c *Conn) ReadLine() ([]byte, error) {
	if d := c.srv.ReadTimeout; d > 0 && !c.lineBuffered() {
		c.conn.SetReadDeadline(time.Now().Add(d))
	}
	return c.r.ReadSlice('\n')
}

func (c *Conn) lineBuffered() bool {
	b, _ := c.r.Peek(c.r.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// Flush sends what the buffer holds, under WriteTimeout.
func (c *Conn) Flush() error {
	if d := c.srv.WriteTimeout; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return c.Writer.Flush()
}

// WriteInt writes n in decimal, straight into the buffer.
func (c *Conn) WriteInt(n int) {
	c.Write(strconv.AppendInt(c.AvailableBuffer(), int64(n), 10))
}

// Commands reads "VERB argument" lines and hands each to run, counting
// and timing it by verb. It returns nil when run reports the session
// over, and otherwise the error of the read that ended it: the peer is
// gone, a deadline passed, the connection was severed, or the line did
// not fit the buffer (ErrLineTooLong).
//
// The verb is upper-cased, so a protocol matches it exactly. Verb and
// argument alias the reader's buffer: they hold until run reads from
// the connection again, and one kept longer must be copied.
func (c *Conn) Commands(run func(verb, arg string) (quit bool)) error {
	for {
		line, err := c.ReadLine()
		if err == bufio.ErrBufferFull {
			return ErrLineTooLong
		}
		if err != nil {
			return err
		}
		verb, arg, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte{' '})
		for i, b := range verb {
			if 'a' <= b && b <= 'z' {
				verb[i] = b - ('a' - 'A')
			}
		}
		// The counter is found before run, which may read on (a DATA
		// body) over the line verb points into.
		count := c.m.counter(alias(verb))
		start := c.m.cmdStart()
		quit := run(alias(verb), alias(arg))
		c.m.command(count, start)
		if quit {
			return nil
		}
	}
}

// alias is b as a string without a copy: valid while b is not written.
func alias(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
