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
	"fmt"
	"net"
	"strconv"
	"strings"

	"repro/internal/mailboat"
	"repro/internal/netsrv"
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

// Server is one POP3 listener: the shared connection server (Serve,
// Close, Shutdown, Addr, ReadTimeout, WriteTimeout, MaxConns — excess
// connections are answered "-ERR [SYS/TEMP]"; a forced Shutdown still
// runs each handler's deferred Unlock) plus the protocol below.
type Server struct {
	*netsrv.Server
	users   uint64
	backend Maildrop

	// Metrics, when non-nil, records connection and command metrics
	// (see NewMetrics). Set it before Serve.
	Metrics *Metrics
	// Tracer, when non-nil, opens a root span per PASS (op "pickup")
	// and per QUIT with pending deletes (op "delete"), threading them
	// through a TracedMaildrop backend. Set it before Serve.
	Tracer *trace.Tracer
}

// NewServer creates a POP3 server over backend.
func NewServer(backend Maildrop, users uint64) *Server {
	s := &Server{users: users, backend: backend}
	s.Server = netsrv.New("-ERR [SYS/TEMP] server too busy, try again later", s.handle, func() *netsrv.Metrics {
		if s.Metrics == nil {
			return nil
		}
		return s.Metrics.Metrics
	})
	return s
}

func (s *Server) handle(conn net.Conn) {
	c := s.NewConn(conn)
	// follows starts a multi-line reply: the status line stays in the
	// buffer and leaves with the body and the terminator, in one flush.
	follows := func(msg string) { fmt.Fprintf(c, "+OK %s\r\n", msg) }
	ok := func(msg string) bool {
		follows(msg)
		return c.Flush() == nil
	}
	bad := func(msg string) bool {
		fmt.Fprintf(c, "-ERR %s\r\n", msg)
		return c.Flush() == nil
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

	// Each POP3 command runs against the session state, reporting true
	// when the connection must end (QUIT, or a write failure
	// mid-response).
	c.Commands(func(verb, arg string) (quit bool) {
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
					fmt.Fprintf(c, "%d %d\r\n", i+1, len(m.Contents))
				}
			}
			fmt.Fprintf(c, ".\r\n")
			if c.Flush() != nil {
				return true
			}
		case "RETR":
			i, valid := s.msgIndex(arg, msgs, deleted)
			if !authed || !valid {
				bad("no such message")
				return false
			}
			follows(fmt.Sprintf("%d octets", len(msgs[i].Contents)))
			writeMultiline(&c.Writer, msgs[i].Contents)
			if c.Flush() != nil {
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
			writeMultiline(&c.Writer, topOf(msgs[i].Contents, lines))
			if c.Flush() != nil {
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
					fmt.Fprintf(c, "%d %s\r\n", i+1, m.ID)
				}
			}
			fmt.Fprintf(c, ".\r\n")
			if c.Flush() != nil {
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
	})
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
