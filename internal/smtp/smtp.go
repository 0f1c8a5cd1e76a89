// Package smtp implements the unverified SMTP front end of §8.2: a
// minimal RFC 5321 server (HELO/EHLO, MAIL FROM, RCPT TO, DATA, RSET,
// NOOP, QUIT) that hands completed messages to the verified Mailboat
// library. Recipient addresses have the form userN@<anything>; the N
// selects the mailbox.
//
// The protocol implementation is deliberately outside the verified
// core, matching the paper's TCB boundary: "The protocol implementation
// is unverified, but works with the Postal mail server benchmarking
// library". Because it is unverified it degrades gracefully instead of
// trusting anything: transient store failures answer 451 (try again
// later) rather than dropping the connection, a full server answers 421
// at accept time, per-connection deadlines bound stuck peers, and a
// panicking handler kills only its own connection.
package smtp

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Deliverer accepts completed messages; the Mailboat adapter in
// internal/mailboatd implements it over the verified library. A nil
// error acknowledges the message as durably accepted; any error is
// reported to the client as transient (451), so the sender retries.
type Deliverer interface {
	Deliver(user uint64, msg []byte) error
}

// TracedDeliverer is the optional tracing extension of Deliverer: the
// server hands the verb's root span down so the store can hang stage
// spans off it. Backends that don't implement it are simply served
// untraced.
type TracedDeliverer interface {
	DeliverTraced(sp *trace.Span, user uint64, msg []byte) error
}

// insufficientStorage reports whether err is a storage-capacity
// refusal (disk full, over quota, or load shed) rather than a generic
// transient failure. Detection is structural so the front end does not
// depend on the store package; mailboatd's ErrNoSpace and
// ErrOverloaded both carry the marker.
func insufficientStorage(err error) bool {
	is, ok := err.(interface{ InsufficientStorage() bool })
	return ok && is.InsufficientStorage()
}

// ParseRecipient extracts the mailbox index from an address like
// "user7@example.com" (angle brackets optional).
func ParseRecipient(addr string, users uint64) (uint64, error) {
	addr = strings.TrimSpace(addr)
	addr = strings.TrimPrefix(addr, "<")
	addr = strings.TrimSuffix(addr, ">")
	local, _, _ := strings.Cut(addr, "@")
	if !strings.HasPrefix(local, "user") {
		return 0, fmt.Errorf("smtp: unknown mailbox %q", addr)
	}
	n, err := strconv.ParseUint(local[len("user"):], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("smtp: unknown mailbox %q", addr)
	}
	if n >= users {
		return 0, fmt.Errorf("smtp: mailbox %d out of range", n)
	}
	return n, nil
}

// Server is one SMTP listener.
type Server struct {
	users   uint64
	backend Deliverer

	// ReadTimeout and WriteTimeout bound each command read and each
	// response write; zero means no deadline. A peer that stalls longer
	// loses its connection rather than pinning a handler goroutine.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; excess connections
	// are answered 421 and closed. Zero means unlimited.
	MaxConns int
	// Metrics, when non-nil, records connection and command metrics
	// (see NewMetrics). Set it before Serve.
	Metrics *Metrics
	// Tracer, when non-nil, opens a root span per DATA command (op
	// "deliver") and threads it through a TracedDeliverer backend, so a
	// single delivery renders as a nested timeline. Set it before Serve.
	Tracer *trace.Tracer

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates an SMTP server delivering into backend.
func NewServer(backend Deliverer, users uint64) *Server {
	return &Server{users: users, backend: backend, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections on ln until Close/Shutdown. It blocks, and
// returns nil after a deliberate Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			s.Metrics.connRefused()
			s.refuse(conn)
			continue
		}
		s.Metrics.connOpened()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			defer s.Metrics.connClosed()
			// An unverified protocol handler must not take the whole
			// server down: a panic costs only this connection.
			defer func() {
				if r := recover(); r != nil {
					s.Metrics.panicked()
				}
			}()
			s.handle(conn)
		}()
	}
}

// track registers conn, refusing when at capacity or shutting down.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || (s.MaxConns > 0 && len(s.conns) >= s.MaxConns) {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// refuse answers a connection the server cannot serve right now with
// 421 (service not available, try later) instead of a silent close.
func (s *Server) refuse(conn net.Conn) {
	if s.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
	fmt.Fprintf(conn, "421 mailboat too busy, try again later\r\n")
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
// finish. If ctx expires first the remaining connections are
// force-closed (their handlers then exit on the next read) and ctx's
// error is returned.
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

// Addr returns the listener address, for tests.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

type session struct {
	rcpts   []uint64
	inOrder bool // MAIL FROM seen
}

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	readLine := func() (string, error) {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		return r.ReadString('\n')
	}
	say := func(code int, msg string) bool {
		fmt.Fprintf(w, "%d %s\r\n", code, msg)
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		return w.Flush() == nil
	}
	if !say(220, "mailboat SMTP service ready") {
		return
	}

	var st session
	for {
		line, err := readLine()
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		verb, arg, _ := strings.Cut(line, " ")
		start := s.Metrics.cmdStart()
		quit := s.command(&st, verb, arg, readLine, say)
		s.Metrics.command(verb, start)
		if quit {
			return
		}
	}
}

// command executes one SMTP command against the session state,
// reporting true when the connection must end (QUIT, or a read/write
// failure mid-command).
func (s *Server) command(st *session, verb, arg string, readLine func() (string, error), say func(int, string) bool) bool {
	switch strings.ToUpper(verb) {
	case "HELO", "EHLO":
		say(250, "mailboat at your service")
	case "MAIL":
		*st = session{inOrder: true}
		say(250, "ok")
	case "RCPT":
		if !st.inOrder {
			say(503, "need MAIL first")
			return false
		}
		arg = strings.TrimPrefix(strings.TrimSpace(arg), "TO:")
		arg = strings.TrimPrefix(arg, "to:")
		user, err := ParseRecipient(arg, s.users)
		if err != nil {
			say(550, "no such mailbox")
			return false
		}
		st.rcpts = append(st.rcpts, user)
		say(250, "ok")
	case "DATA":
		if len(st.rcpts) == 0 {
			say(503, "need RCPT first")
			return false
		}
		if !say(354, "end with <CRLF>.<CRLF>") {
			return true
		}
		body, err := readData(readLine)
		if err != nil {
			return true
		}
		// The root span opens after the body is read: it times the
		// store's work, not the client's typing speed.
		root := s.Tracer.Start("deliver", "smtp.DATA")
		td, traced := s.backend.(TracedDeliverer)
		failed, full := false, false
		for _, user := range st.rcpts {
			var err error
			if root != nil && traced {
				err = td.DeliverTraced(root, user, body)
			} else {
				err = s.backend.Deliver(user, body)
			}
			if err != nil {
				failed = true
				if insufficientStorage(err) {
					full = true
				}
			}
		}
		switch {
		case full:
			root.Note("delivery shed for storage (452)")
		case failed:
			root.Note("delivery failed transiently (451)")
		}
		root.End()
		*st = session{}
		switch {
		case full:
			// The store is out of space or shedding load: RFC 5321's
			// 452 (insufficient system storage) tells the sender to
			// retry later. The message was NOT acknowledged, and the
			// store was left untouched.
			s.Metrics.insufficientStorage()
			say(452, "insufficient system storage, try again later")
		case failed:
			// Transient store failure: degrade gracefully with 451
			// so the sender retries, instead of dropping the
			// connection. The message was NOT acknowledged.
			s.Metrics.tempFailure()
			say(451, "local error in processing, try again later")
		default:
			say(250, "delivered")
		}
	case "RSET":
		*st = session{}
		say(250, "ok")
	case "NOOP":
		say(250, "ok")
	case "QUIT":
		say(221, "bye")
		return true
	default:
		say(500, "unrecognized command")
	}
	return false
}

// readData reads a DATA body up to the lone-dot terminator, undoing
// dot-stuffing per RFC 5321 §4.5.2.
func readData(readLine func() (string, error)) ([]byte, error) {
	var body []byte
	for {
		line, err := readLine()
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "." {
			return body, nil
		}
		body = append(append(body, strings.TrimPrefix(line, ".")...), '\n')
	}
}
