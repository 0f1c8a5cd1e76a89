// Package pop3 implements the unverified POP3 front end of §8.2: a
// minimal RFC 1939 server (USER/PASS, STAT, LIST, UIDL, RETR, TOP,
// DELE, RSET, NOOP, QUIT) over a Maildrop backend. Authenticating as userN opens
// mailbox N, which in Mailboat terms performs Pickup (taking the
// per-user lock); QUIT applies the deletes and performs Unlock, so a
// POP3 session maps exactly onto the paper's Pickup … Delete … Unlock
// protocol.
//
// Like the SMTP front end, the server degrades gracefully under store
// trouble: transient backend failures answer "-ERR [SYS/TEMP] …" (RFC
// 2449 response codes) instead of dropping the connection, a full
// server refuses new connections with the same marker, per-connection
// deadlines bound stuck peers, and a panicking handler costs only its
// own connection (the deferred Unlock still runs).
package pop3

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mailboat"
	"repro/internal/trace"
)

// Maildrop is the mailbox backend; internal/mailboatd adapts the
// verified library to it. Errors from Pickup and Delete are treated as
// transient and surfaced to the client as "-ERR [SYS/TEMP]".
type Maildrop interface {
	Pickup(user uint64) ([]mailboat.Message, error)
	Delete(user uint64, id string) error
	Unlock(user uint64)
}

// TracedMaildrop is the optional tracing extension of Maildrop: the
// server hands the verb's root span down so the store can hang stage
// spans off it. Backends that don't implement it are served untraced.
type TracedMaildrop interface {
	PickupTraced(sp *trace.Span, user uint64) ([]mailboat.Message, error)
	DeleteTraced(sp *trace.Span, user uint64, id string) error
}

// Server is one POP3 listener.
type Server struct {
	users   uint64
	backend Maildrop

	// ReadTimeout and WriteTimeout bound each command read and each
	// response write; zero means no deadline.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; excess connections
	// are answered "-ERR [SYS/TEMP] too busy" and closed. Zero means
	// unlimited.
	MaxConns int
	// Metrics, when non-nil, records connection and command metrics
	// (see NewMetrics). Set it before Serve.
	Metrics *Metrics
	// Tracer, when non-nil, opens a root span per PASS (op "pickup")
	// and per QUIT with pending deletes (op "delete"), threading them
	// through a TracedMaildrop backend. Set it before Serve.
	Tracer *trace.Tracer

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a POP3 server over backend.
func NewServer(backend Maildrop, users uint64) *Server {
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
			// A panic in the unverified handler costs only this
			// connection; the handler's own deferred Unlock has already
			// run by the time the panic reaches here.
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

// refuse answers a connection the server cannot serve right now.
func (s *Server) refuse(conn net.Conn) {
	if s.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
	}
	fmt.Fprintf(conn, "-ERR [SYS/TEMP] server too busy, try again later\r\n")
	conn.Close()
}

// ListenAndServe listens on addr and serves.
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

// Shutdown closes the listener and waits for in-flight sessions. If
// ctx expires first the remaining connections are force-closed (each
// handler's deferred Unlock still releases its mailbox lock) and ctx's
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

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	flush := func() error {
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		return w.Flush()
	}
	// follows starts a multi-line reply: the status line stays in the
	// buffer and leaves with the body and the terminator, in one flush.
	follows := func(msg string) { fmt.Fprintf(w, "+OK %s\r\n", msg) }
	ok := func(msg string) bool {
		follows(msg)
		return flush() == nil
	}
	bad := func(msg string) bool {
		fmt.Fprintf(w, "-ERR %s\r\n", msg)
		return flush() == nil
	}
	if !ok("mailboat POP3 ready") {
		return
	}

	var (
		authedUser uint64
		authed     bool
		pendUser   string
		msgs       []mailboat.Message
		deleted    []bool
	)
	// Ensure the mailbox lock is released even on abrupt disconnect.
	defer func() {
		if authed {
			s.backend.Unlock(authedUser)
		}
	}()

	// command executes one POP3 command against the session state,
	// reporting true when the connection must end (QUIT, or a write
	// failure mid-response).
	command := func(verb, arg string) (quit bool) {
		switch strings.ToUpper(verb) {
		case "USER":
			pendUser = strings.TrimSpace(arg)
			ok("send PASS")
		case "PASS":
			if authed {
				bad("already authenticated")
				return false
			}
			u, err := parseUser(pendUser, s.users)
			if err != nil {
				bad("no such user")
				return false
			}
			root := s.Tracer.Start("pickup", "pop3.PASS")
			tm, traced := s.backend.(TracedMaildrop)
			var m []mailboat.Message
			if root != nil && traced {
				m, err = tm.PickupTraced(root, u)
			} else {
				m, err = s.backend.Pickup(u)
			}
			if err != nil {
				root.Note("pickup failed transiently ([SYS/TEMP])")
				root.End()
				// Transient store failure: the session stays open so
				// the client can retry PASS, per the graceful-
				// degradation contract.
				s.Metrics.tempFailure()
				bad("[SYS/TEMP] maildrop unavailable, try again later")
				return false
			}
			root.End()
			authedUser, authed = u, true
			msgs = m
			deleted = make([]bool, len(m))
			ok(fmt.Sprintf("maildrop has %d messages", len(m)))
		case "STAT":
			if !authed {
				bad("authenticate first")
				return false
			}
			n, bytes := 0, 0
			for i, m := range msgs {
				if !deleted[i] {
					n++
					bytes += len(m.Contents)
				}
			}
			ok(fmt.Sprintf("%d %d", n, bytes))
		case "LIST":
			if !authed {
				bad("authenticate first")
				return false
			}
			follows("scan listing follows")
			for i, m := range msgs {
				if !deleted[i] {
					fmt.Fprintf(w, "%d %d\r\n", i+1, len(m.Contents))
				}
			}
			fmt.Fprintf(w, ".\r\n")
			if flush() != nil {
				return true
			}
		case "RETR":
			i, valid := s.msgIndex(arg, msgs, deleted)
			if !authed || !valid {
				bad("no such message")
				return false
			}
			follows(fmt.Sprintf("%d octets", len(msgs[i].Contents)))
			writeMultiline(w, msgs[i].Contents)
			if flush() != nil {
				return true
			}
		case "TOP":
			num, rest, _ := strings.Cut(strings.TrimSpace(arg), " ")
			i, valid := s.msgIndex(num, msgs, deleted)
			lines, err := strconv.Atoi(strings.TrimSpace(rest))
			if !authed || !valid || err != nil || lines < 0 {
				bad("no such message")
				return false
			}
			follows("top of message follows")
			writeMultiline(w, topOf(msgs[i].Contents, lines))
			if flush() != nil {
				return true
			}
		case "UIDL":
			if !authed {
				bad("authenticate first")
				return false
			}
			if strings.TrimSpace(arg) != "" {
				i, valid := s.msgIndex(arg, msgs, deleted)
				if !valid {
					bad("no such message")
					return false
				}
				ok(fmt.Sprintf("%d %s", i+1, msgs[i].ID))
				return false
			}
			follows("unique-id listing follows")
			for i, m := range msgs {
				if !deleted[i] {
					fmt.Fprintf(w, "%d %s\r\n", i+1, m.ID)
				}
			}
			fmt.Fprintf(w, ".\r\n")
			if flush() != nil {
				return true
			}
		case "DELE":
			i, valid := s.msgIndex(arg, msgs, deleted)
			if !authed || !valid {
				bad("no such message")
				return false
			}
			deleted[i] = true
			ok("marked for deletion")
		case "RSET":
			for i := range deleted {
				deleted[i] = false
			}
			ok("reset")
		case "NOOP":
			ok("")
		case "QUIT":
			if authed {
				var root *trace.Span
				for i := range msgs {
					if deleted[i] {
						// Open the root only when there is delete work
						// to time; a plain disconnect stays trace-free.
						root = s.Tracer.Start("delete", "pop3.QUIT")
						break
					}
				}
				tm, traced := s.backend.(TracedMaildrop)
				failed := 0
				for i, m := range msgs {
					if deleted[i] {
						var err error
						if root != nil && traced {
							err = tm.DeleteTraced(root, authedUser, m.ID)
						} else {
							err = s.backend.Delete(authedUser, m.ID)
						}
						if err != nil {
							failed++
						}
					}
				}
				if failed > 0 {
					root.Note("%d delete(s) failed transiently", failed)
				}
				root.End()
				s.backend.Unlock(authedUser)
				authed = false
				if failed > 0 {
					// RFC 1939 UPDATE state: deletes that could not be
					// applied are reported, not silently dropped; the
					// messages remain in the maildrop.
					s.Metrics.tempFailure()
					bad(fmt.Sprintf("[SYS/TEMP] %d message(s) not removed, still in maildrop", failed))
					return true
				}
			}
			ok("bye")
			return true
		default:
			bad("unrecognized command")
		}
		return false
	}

	for {
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		verb, arg, _ := strings.Cut(line, " ")
		start := s.Metrics.cmdStart()
		quit := command(verb, arg)
		s.Metrics.command(verb, start)
		if quit {
			return
		}
	}
}

func (s *Server) msgIndex(arg string, msgs []mailboat.Message, deleted []bool) (int, bool) {
	n, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil || n < 1 || n > len(msgs) || deleted == nil || deleted[n-1] {
		return 0, false
	}
	return n - 1, true
}

func parseUser(name string, users uint64) (uint64, error) {
	if !strings.HasPrefix(name, "user") {
		return 0, fmt.Errorf("pop3: unknown user %q", name)
	}
	n, err := strconv.ParseUint(name[len("user"):], 10, 64)
	if err != nil || n >= users {
		return 0, fmt.Errorf("pop3: unknown user %q", name)
	}
	return n, nil
}

// topOf returns the message headers plus the first n body lines, per
// RFC 1939's TOP.
func topOf(body string, n int) string {
	lines := strings.Split(body, "\n")
	// Find the blank separator between headers and body.
	sep := len(lines)
	for i, l := range lines {
		if l == "" {
			sep = i
			break
		}
	}
	end := sep + 1 + n
	if end > len(lines) {
		end = len(lines)
	}
	return strings.Join(lines[:end], "\n")
}

// writeMultiline sends a POP3 multi-line response body with
// dot-stuffing and the terminating lone dot (RFC 1939 §3).
func writeMultiline(w *bufio.Writer, body string) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, ".") {
			w.WriteString(".")
		}
		w.WriteString(line)
		w.WriteString("\r\n")
	}
	w.WriteString(".\r\n")
}
