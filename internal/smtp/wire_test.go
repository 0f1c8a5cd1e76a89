package smtp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
)

// countingConn counts the Writes that reach the connection and keeps
// their bytes.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	wire   strings.Builder
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.wire.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// sent returns how many Writes there were and everything they wrote.
func (c *countingConn) sent() (int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.wire.String()
}

// fullErr is a refusal carrying the insufficient-storage marker.
type fullErr struct{}

func (fullErr) Error() string             { return "no space" }
func (fullErr) InsufficientStorage() bool { return true }

// scriptedBackend accepts every message, or fails each with err.
type scriptedBackend struct {
	mu  sync.Mutex
	err error
	got [][]byte
}

func (b *scriptedBackend) Deliver(user uint64, msg []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	b.got = append(b.got, msg)
	return nil
}

func (b *scriptedBackend) fail(err error) {
	b.mu.Lock()
	b.err = err
	b.mu.Unlock()
}

// TestEveryReplyIsOneWrite is TestMultilineReplyIsOneWrite's twin: every
// SMTP reply, the banner and the line-too-long refusal included, is one
// Write on the connection, and its bytes are exactly these.
func TestEveryReplyIsOneWrite(t *testing.T) {
	backend := &scriptedBackend{}
	server, peer := net.Pipe()
	conn := &countingConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(backend, 10).handle(conn)
		server.Close()
	}()
	defer peer.Close()
	r := bufio.NewReader(peer)
	// What the connection had sent when the last reply was read: the
	// server writes the next reply only once it has the next command, and
	// may do so before reply samples anything.
	writes, wire := 0, ""
	reply := func(t *testing.T, what, want string) {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after, all := conn.sent()
		if got := after - writes; got != 1 {
			t.Errorf("%s: reply took %d writes, want 1", what, got)
		}
		if got := all[len(wire):]; got != want || line != want {
			t.Errorf("%s: wire bytes %q, want %q", what, got, want)
		}
		writes, wire = after, all
	}
	reply(t, "banner", "220 mailboat SMTP service ready\r\n")
	for _, tc := range []struct {
		send, reply string
		fail        error // the backend's answer to the next delivery
	}{
		{send: "HELO tester\r\n", reply: "250 mailboat at your service\r\n"},
		{send: "ehlo tester\r\n", reply: "250 mailboat at your service\r\n"},
		{send: "RCPT TO:<user1@x>\r\n", reply: "503 need MAIL first\r\n"},
		{send: "MAIL FROM:<s@x>\r\n", reply: "250 ok\r\n"},
		{send: "DATA\r\n", reply: "503 need RCPT first\r\n"},
		{send: "RCPT TO:<nobody@x>\r\n", reply: "550 no such mailbox\r\n"},
		{send: "Rcpt To:<user1@x>\r\n", reply: "250 ok\r\n"},
		{send: "DATA\r\n", reply: "354 end with <CRLF>.<CRLF>\r\n"},
		{send: "a\r\n..b\r\n.\r\n", reply: "250 delivered\r\n"},
		{send: "MAIL FROM:<s@x>\r\n", reply: "250 ok\r\n"},
		{send: "RCPT TO:<user2@x>\r\n", reply: "250 ok\r\n"},
		{send: "DATA\r\n", reply: "354 end with <CRLF>.<CRLF>\r\n"},
		{send: "x\r\n.\r\n", reply: "451 local error in processing, try again later\r\n", fail: errors.New("disk trouble")},
		{send: "MAIL FROM:<s@x>\r\n", reply: "250 ok\r\n"},
		{send: "RCPT TO:<user2@x>\r\n", reply: "250 ok\r\n"},
		{send: "DATA\r\n", reply: "354 end with <CRLF>.<CRLF>\r\n"},
		{send: "x\r\n.\r\n", reply: "452 insufficient system storage, try again later\r\n", fail: fullErr{}},
		{send: "RSET\r\n", reply: "250 ok\r\n"},
		{send: "NOOP\r\n", reply: "250 ok\r\n"},
		{send: "FROBNICATE\r\n", reply: "500 unrecognized command\r\n"},
		{send: strings.Repeat("X", 5000) + "\r\n", reply: "500 line too long\r\n"},
	} {
		backend.fail(tc.fail)
		// A pipe's Write returns once the server has read it all, which
		// the server does not do with a line too long.
		go io.WriteString(peer, tc.send)
		reply(t, strings.TrimSpace(tc.send[:min(len(tc.send), 20)]), tc.reply)
	}
	<-done // a line too long ends the session
	if len(backend.got) != 1 || string(backend.got[0]) != "a\n.b\n" {
		t.Fatalf("delivered %q, want one message %q", backend.got, "a\n.b\n")
	}
}

// TestRcptKeywordIsCaseInsensitive: RFC 5321 §2.4 makes "TO:" a
// case-insensitive keyword, so every spelling reaches the mailbox.
func TestRcptKeywordIsCaseInsensitive(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)
	c := dial(t, addr)
	c.expect(t, "220")
	c.send(t, "mail from:<s@x>")
	c.expect(t, "250")
	for _, rcpt := range []string{"RCPT TO:<user1@x>", "rcpt to:<user2@x>", "Rcpt To:<user3@x>", "RCPT tO: <user4@x>"} {
		c.send(t, rcpt)
		c.expect(t, "250")
	}
	c.send(t, "data")
	c.expect(t, "354")
	c.send(t, "hi")
	c.send(t, ".")
	c.expect(t, "250")
	fb.mu.Lock()
	defer fb.mu.Unlock()
	for u := uint64(1); u <= 4; u++ {
		if len(fb.mail[u]) != 1 || fb.mail[u][0] != "hi\n" {
			t.Errorf("user%d got %q", u, fb.mail[u])
		}
	}
}

// TestLineTooLong: a command line that does not fit the reader's 4 KiB
// buffer is answered 500 and ends the session, instead of growing a
// buffer for as long as a peer keeps sending; a DATA body line of any
// length is still accepted, whole.
func TestLineTooLong(t *testing.T) {
	fb := &fakeBackend{}
	_, addr := startServer(t, fb)

	c := dial(t, addr)
	c.expect(t, "220")
	long := strings.Repeat("y", 20000)
	c.send(t, "MAIL FROM:<s@x>")
	c.expect(t, "250")
	c.send(t, "RCPT TO:<user1@x>")
	c.expect(t, "250")
	c.send(t, "DATA")
	c.expect(t, "354")
	c.send(t, ".."+long)
	c.send(t, long+"\r")
	c.send(t, ".")
	c.expect(t, "250")
	fb.mu.Lock()
	got := fb.mail[1]
	fb.mu.Unlock()
	if want := "." + long + "\n" + long + "\n"; len(got) != 1 || got[0] != want {
		t.Fatalf("long body lines: got %d messages, want one of %d bytes", len(got), len(want))
	}

	c.send(t, "NOOP "+strings.Repeat("z", 4096))
	c.expect(t, "500 line too long")
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("the session outlived a line too long")
	}
}

// TestFrontEndAllocationBudget: a MAIL/RCPT/DATA transaction allocates
// only the Deliverer's copy of the body, however many lines the body
// has — lines are parsed in the reader's buffer, un-dot-stuffed into a
// buffer the session keeps, and replies are written without fmt.
func TestFrontEndAllocationBudget(t *testing.T) {
	server, peer := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(noopBackend{}, 10).handle(server)
		server.Close()
	}()
	defer func() { peer.Close(); <-done }()
	r := bufio.NewReader(peer)
	roundTrip := func(send []byte, want string) {
		if _, err := peer.Write(send); err != nil {
			t.Fatalf("send %.20q: %v", send, err)
		}
		if line, err := r.ReadSlice('\n'); err != nil || string(line) != want {
			t.Fatalf("after %.20q: got %q, %v; want %q", send, line, err, want)
		}
	}
	if line, err := r.ReadSlice('\n'); err != nil || string(line) != "220 mailboat SMTP service ready\r\n" {
		t.Fatalf("banner %q, %v", line, err)
	}
	var (
		mail = []byte("MAIL FROM:<s@x>\r\n")
		rcpt = []byte("RCPT TO:<user1@x>\r\n")
		data = []byte("DATA\r\n")
	)
	for _, lines := range []int{3, 300} {
		var body bytes.Buffer
		for i := range lines {
			if i%7 == 0 {
				body.WriteString(".")
			}
			body.WriteString("a body line of a few dozen bytes, as mail has\r\n")
		}
		body.WriteString(".\r\n")
		got := testing.AllocsPerRun(50, func() {
			roundTrip(mail, "250 ok\r\n")
			roundTrip(rcpt, "250 ok\r\n")
			roundTrip(data, "354 end with <CRLF>.<CRLF>\r\n")
			roundTrip(body.Bytes(), "250 delivered\r\n")
		})
		t.Logf("%d-line body: %.1f allocs per transaction", lines, got)
		if got != 1 {
			t.Errorf("%d-line body: %.1f allocs per transaction, want 1 (the Deliverer's copy)", lines, got)
		}
	}
}

type noopBackend struct{}

func (noopBackend) Deliver(uint64, []byte) error { return nil }
