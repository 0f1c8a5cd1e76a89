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
	"fmt"
	"net"
	"strconv"
	"strings"

	"repro/internal/netsrv"
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

// Server is one SMTP listener: the shared connection server (Serve,
// Close, Shutdown, Addr, ReadTimeout, WriteTimeout, MaxConns — excess
// connections are answered 421) plus the protocol below.
type Server struct {
	*netsrv.Server
	users   uint64
	backend Deliverer

	// Metrics records connection and command metrics (see NewMetrics);
	// zero, it records nothing. Set it before Serve.
	Metrics Metrics
	// Tracer, when non-nil, opens a root span per DATA command (op
	// "deliver") and threads it through a TracedDeliverer backend, so a
	// single delivery renders as a nested timeline. Set it before Serve.
	Tracer *trace.Tracer
}

// NewServer creates an SMTP server delivering into backend.
func NewServer(backend Deliverer, users uint64) *Server {
	s := &Server{users: users, backend: backend}
	s.Server = netsrv.New("421 mailboat too busy, try again later", s.handle, &s.Metrics.Metrics)
	return s
}

// session is one connection's transaction state. Its two slices keep
// their backing arrays from one transaction to the next.
type session struct {
	rcpts   []uint64
	inOrder bool   // MAIL FROM seen
	body    []byte // the DATA body being read, un-dot-stuffed
}

// reset ends the transaction and keeps the arrays.
func (st *session) reset() {
	st.rcpts, st.inOrder = st.rcpts[:0], false
}

func (s *Server) handle(conn net.Conn) {
	c := s.NewConn(conn)
	say := func(code int, msg string) bool {
		c.WriteInt(code)
		c.WriteByte(' ')
		c.WriteString(msg)
		c.WriteString("\r\n")
		return c.Flush() == nil
	}
	if !say(220, "mailboat SMTP service ready") {
		return
	}
	var st session
	err := c.Commands(func(verb, arg string) bool { return s.command(c, &st, verb, arg, say) })
	if err == netsrv.ErrLineTooLong {
		say(500, "line too long")
	}
}

// command executes one SMTP command against the session state,
// reporting true when the connection must end (QUIT, or a read/write
// failure mid-command).
func (s *Server) command(c *netsrv.Conn, st *session, verb, arg string, say func(int, string) bool) bool {
	switch verb {
	case "HELO", "EHLO":
		say(250, "mailboat at your service")
	case "MAIL":
		st.reset()
		st.inOrder = true
		say(250, "ok")
	case "RCPT":
		if !st.inOrder {
			say(503, "need MAIL first")
			return false
		}
		// RFC 5321 §2.4: the keyword is case-insensitive.
		arg = strings.TrimSpace(arg)
		if len(arg) >= 3 && strings.EqualFold(arg[:3], "TO:") {
			arg = arg[3:]
		}
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
		var err error
		if st.body, err = readData(c, st.body[:0]); err != nil {
			return true
		}
		// The backend may keep what it is handed; the session buffer is
		// reused, so every recipient shares one exact-size copy.
		body := make([]byte, len(st.body))
		copy(body, st.body)
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
		st.reset()
		switch {
		case full:
			// The store is out of space or shedding load: RFC 5321's
			// 452 (insufficient system storage) tells the sender to
			// retry later. The message was NOT acknowledged, and the
			// store was left untouched.
			s.Metrics.Full.Inc()
			say(452, "insufficient system storage, try again later")
		case failed:
			// Transient store failure: degrade gracefully with 451
			// so the sender retries, instead of dropping the
			// connection. The message was NOT acknowledged.
			s.Metrics.TempFail.Inc()
			say(451, "local error in processing, try again later")
		default:
			say(250, "delivered")
		}
	case "RSET":
		st.reset()
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

// readData appends a DATA body up to the lone-dot terminator to body,
// undoing dot-stuffing per RFC 5321 §4.5.2: each line is copied once,
// from the reader's buffer, with "\n" for its terminator. A line longer
// than the reader's buffer arrives, and is appended, in pieces.
func readData(c *netsrv.Conn, body []byte) ([]byte, error) {
	start, stuffed := len(body), false // the current line's start; its leading dot was dropped
	for {
		piece, err := c.ReadLine()
		if err != nil && err != bufio.ErrBufferFull {
			return body, err
		}
		if len(body) == start && !stuffed && len(piece) > 0 && piece[0] == '.' {
			piece, stuffed = piece[1:], true
		}
		body = append(body, piece...)
		if err == bufio.ErrBufferFull {
			continue
		}
		// A whole line: its CR/LF tail becomes one "\n", and a lone dot
		// ends the body.
		end := len(body)
		for end > start && (body[end-1] == '\r' || body[end-1] == '\n') {
			end--
		}
		if stuffed && end == start {
			return body[:start], nil
		}
		body = append(body[:end], '\n')
		start, stuffed = len(body), false
	}
}
