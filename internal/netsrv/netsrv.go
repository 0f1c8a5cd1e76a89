// Package netsrv is the connection server under every network front
// end: the SMTP and POP3 servers of §8.2 and the replication frame
// server. It is unverified code every networked request crosses, so it
// exists once. It owns the accept loop, the connection cap and the
// refusal line, panic containment, the set of live connections with
// Close and Shutdown over it, and — for the line protocols — the
// deadline-armed read, flush and command loop of one connection. A
// front end supplies only its protocol: a refusal line and a session
// function.
package netsrv

import (
	"bufio"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"time"
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
	conns  map[net.Conn]struct{}
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
	return &Server{refusal: refusal, session: session, metrics: metrics, conns: map[net.Conn]struct{}{}}
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
	s.session(conn)
}

// track registers conn, refusing when at capacity or shutting down. The
// WaitGroup is raised under mu so that it cannot race Shutdown's Wait.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || (s.MaxConns > 0 && len(s.conns) >= s.MaxConns) {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
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
type Conn struct {
	bufio.Writer
	r    bufio.Reader
	conn net.Conn
	srv  *Server
	m    *Metrics
}

// NewConn wraps conn for a session function. Sessions build it
// themselves so that a test can drive one over a pipe. Reader and
// writer live in the Conn: one object per connection beside the two
// buffers.
func (s *Server) NewConn(conn net.Conn) *Conn {
	c := &Conn{conn: conn, srv: s, m: s.metrics()}
	c.Writer.Reset(conn)
	c.r.Reset(conn)
	return c
}

// ReadLine reads one line, terminator included, under ReadTimeout.
func (c *Conn) ReadLine() (string, error) {
	if d := c.srv.ReadTimeout; d > 0 {
		c.conn.SetReadDeadline(time.Now().Add(d))
	}
	return c.r.ReadString('\n')
}

// Flush sends what the buffer holds, under WriteTimeout.
func (c *Conn) Flush() error {
	if d := c.srv.WriteTimeout; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return c.Writer.Flush()
}

// Commands reads "VERB argument" lines and hands each to run, counting
// and timing it by verb, until run reports the session over or a read
// fails (peer gone, deadline passed, connection severed).
func (c *Conn) Commands(run func(verb, arg string) (quit bool)) {
	for {
		line, err := c.ReadLine()
		if err != nil {
			return
		}
		verb, arg, _ := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
		start := c.m.cmdStart()
		quit := run(verb, arg)
		c.m.command(verb, start)
		if quit {
			return
		}
	}
}
