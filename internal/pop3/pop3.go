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
	follows := func(msg string) {
		c.WriteString("+OK ")
		c.WriteString(msg)
		c.WriteString("\r\n")
	}
	ok := func(msg string) bool {
		follows(msg)
		return c.Flush() == nil
	}
	bad := func(msg string) bool {
		c.WriteString("-ERR ")
		c.WriteString(msg)
		c.WriteString("\r\n")
		return c.Flush() == nil
	}
	// line writes head, n in decimal, tail and the CRLF.
	line := func(head string, n int, tail string) {
		c.WriteString(head)
		c.WriteInt(n)
		c.WriteString(tail)
		c.WriteString("\r\n")
	}
	// uid writes message i's number, its unique id and the CRLF.
	uid := func(i int, id string) {
		c.WriteInt(i + 1)
		c.WriteByte(' ')
		c.WriteString(id)
		c.WriteString("\r\n")
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
	err := c.Commands(func(verb, arg string) (quit bool) {
		switch verb {
		case "USER":
			// arg lives in the reader's buffer; the name outlives it.
			pendUser = strings.Clone(strings.TrimSpace(arg))
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
			line("+OK maildrop has ", len(m), " messages")
			c.Flush()
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
			c.WriteString("+OK ")
			c.WriteInt(n)
			line(" ", bytes, "")
			c.Flush()
		case "LIST":
			if !authed {
				bad("authenticate first")
				return false
			}
			follows("scan listing follows")
			for i, m := range msgs {
				if !deleted[i] {
					c.WriteInt(i + 1)
					line(" ", len(m.Contents), "")
				}
			}
			c.WriteString(".\r\n")
			if c.Flush() != nil {
				return true
			}
		case "RETR":
			i, valid := s.msgIndex(arg, msgs, deleted)
			if !authed || !valid {
				bad("no such message")
				return false
			}
			line("+OK ", len(msgs[i].Contents), " octets")
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
				c.WriteString("+OK ")
				uid(i, msgs[i].ID)
				c.Flush()
				return false
			}
			follows("unique-id listing follows")
			for i, m := range msgs {
				if !deleted[i] {
					uid(i, m.ID)
				}
			}
			c.WriteString(".\r\n")
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
					line("-ERR [SYS/TEMP] ", failed, " message(s) not removed, still in maildrop")
					c.Flush()
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
	if err == netsrv.ErrLineTooLong {
		bad("line too long")
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
// RFC 1939's TOP: body up to the end of the n-th line after the first
// blank one, or all of it.
func topOf(body string, n int) string {
	left := -1 // body lines still to keep; -1 until the blank separator
	for off := 0; ; {
		j := strings.IndexByte(body[off:], '\n')
		if j < 0 {
			return body
		}
		if left < 0 {
			if j == 0 {
				left = n
			}
		} else {
			left--
		}
		if left == 0 {
			return body[:off+j]
		}
		off += j + 1
	}
}

// writeMultiline sends a POP3 multi-line response body with
// dot-stuffing and the terminating lone dot (RFC 1939 §3).
func writeMultiline(w *bufio.Writer, body string) {
	for more := true; more; {
		var line string
		line, body, more = strings.Cut(body, "\n")
		if strings.HasPrefix(line, ".") {
			w.WriteByte('.')
		}
		w.WriteString(line)
		w.WriteString("\r\n")
	}
	w.WriteString(".\r\n")
}
