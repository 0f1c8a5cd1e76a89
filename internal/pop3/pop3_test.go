package pop3

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mailboat"
)

type fakeDrop struct {
	mu      sync.Mutex
	mail    map[uint64][]mailboat.Message
	locked  map[uint64]bool
	unlocks int
}

func newFakeDrop() *fakeDrop {
	return &fakeDrop{mail: map[uint64][]mailboat.Message{}, locked: map[uint64]bool{}}
}

func (f *fakeDrop) Pickup(user uint64) ([]mailboat.Message, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.locked[user] {
		return nil, fmt.Errorf("locked")
	}
	f.locked[user] = true
	return append([]mailboat.Message{}, f.mail[user]...), nil
}

func (f *fakeDrop) Delete(user uint64, id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.mail[user][:0]
	for _, m := range f.mail[user] {
		if m.ID != id {
			out = append(out, m)
		}
	}
	f.mail[user] = out
	return nil
}

func (f *fakeDrop) Unlock(user uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.locked[user] = false
	f.unlocks++
}

func startServer(t *testing.T, drop Maildrop) string {
	t.Helper()
	s := NewServer(drop, 10)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return ln.Addr().String()
}

type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) expect(t *testing.T, prefix string) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("expected %q, got %q", prefix, line)
	}
	return line
}

func (c *client) send(t *testing.T, line string) {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\r\n", line); err != nil {
		t.Fatal(err)
	}
}

func (c *client) readMultiline(t *testing.T) []string {
	t.Helper()
	var lines []string
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "." {
			return lines
		}
		lines = append(lines, strings.TrimPrefix(line, "."))
	}
}

func auth(t *testing.T, c *client, user string) {
	c.expect(t, "+OK")
	c.send(t, "USER "+user)
	c.expect(t, "+OK")
	c.send(t, "PASS x")
	c.expect(t, "+OK")
}

func TestStatListRetr(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[1] = []mailboat.Message{
		{ID: "msgA", Contents: "hello\nworld"},
		{ID: "msgB", Contents: ".leading dot"},
	}
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user1")

	c.send(t, "STAT")
	line := c.expect(t, "+OK 2 ")
	if !strings.Contains(line, fmt.Sprint(len("hello\nworld")+len(".leading dot"))) {
		t.Fatalf("STAT: %q", line)
	}

	c.send(t, "LIST")
	c.expect(t, "+OK")
	if got := c.readMultiline(t); len(got) != 2 {
		t.Fatalf("LIST: %v", got)
	}

	c.send(t, "RETR 1")
	c.expect(t, "+OK")
	body := strings.Join(c.readMultiline(t), "\n")
	if body != "hello\nworld" {
		t.Fatalf("RETR 1: %q", body)
	}

	c.send(t, "RETR 2")
	c.expect(t, "+OK")
	body = strings.Join(c.readMultiline(t), "\n")
	if body != ".leading dot" {
		t.Fatalf("dot-stuffing broken: %q", body)
	}
}

func TestDeleAppliedAtQuit(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[2] = []mailboat.Message{{ID: "m1", Contents: "a"}, {ID: "m2", Contents: "b"}}
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user2")
	c.send(t, "DELE 1")
	c.expect(t, "+OK")

	// Not yet applied.
	drop.mu.Lock()
	if len(drop.mail[2]) != 2 {
		t.Fatal("DELE applied before QUIT")
	}
	drop.mu.Unlock()

	c.send(t, "QUIT")
	c.expect(t, "+OK")

	// Wait for the unlock that QUIT performs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		drop.mu.Lock()
		un := drop.unlocks
		n := len(drop.mail[2])
		drop.mu.Unlock()
		if un == 1 {
			if n != 1 {
				t.Fatalf("after QUIT: %d messages", n)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unlock never happened")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRsetUndoesDele(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[1] = []mailboat.Message{{ID: "m1", Contents: "a"}}
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user1")
	c.send(t, "DELE 1")
	c.expect(t, "+OK")
	c.send(t, "RSET")
	c.expect(t, "+OK")
	c.send(t, "RETR 1")
	c.expect(t, "+OK")
	c.readMultiline(t)
	c.send(t, "QUIT")
	c.expect(t, "+OK")
}

func TestDeletedMessageInaccessible(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[1] = []mailboat.Message{{ID: "m1", Contents: "a"}}
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user1")
	c.send(t, "DELE 1")
	c.expect(t, "+OK")
	c.send(t, "RETR 1")
	c.expect(t, "-ERR")
	c.send(t, "DELE 1")
	c.expect(t, "-ERR")
}

func TestUnknownUserRejected(t *testing.T) {
	addr := startServer(t, newFakeDrop())
	c := dial(t, addr)
	c.expect(t, "+OK")
	c.send(t, "USER mallory")
	c.expect(t, "+OK")
	c.send(t, "PASS x")
	c.expect(t, "-ERR")
}

func TestCommandsRequireAuth(t *testing.T) {
	addr := startServer(t, newFakeDrop())
	c := dial(t, addr)
	c.expect(t, "+OK")
	for _, cmd := range []string{"STAT", "LIST", "RETR 1", "DELE 1"} {
		c.send(t, cmd)
		c.expect(t, "-ERR")
	}
}

func TestAbruptDisconnectReleasesLock(t *testing.T) {
	drop := newFakeDrop()
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user1")
	c.conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		drop.mu.Lock()
		un := drop.unlocks
		drop.mu.Unlock()
		if un == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lock not released on disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTopReturnsHeadersAndNBodyLines(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[1] = []mailboat.Message{
		{ID: "m1", Contents: "Subject: hi\nFrom: x\n\nline1\nline2\nline3"},
	}
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user1")
	c.send(t, "TOP 1 2")
	c.expect(t, "+OK")
	got := strings.Join(c.readMultiline(t), "\n")
	want := "Subject: hi\nFrom: x\n\nline1\nline2"
	if got != want {
		t.Fatalf("TOP = %q, want %q", got, want)
	}
	// TOP 1 0: headers plus the separator only.
	c.send(t, "TOP 1 0")
	c.expect(t, "+OK")
	got = strings.Join(c.readMultiline(t), "\n")
	if got != "Subject: hi\nFrom: x\n" {
		t.Fatalf("TOP 0 = %q", got)
	}
	c.send(t, "TOP 9 1")
	c.expect(t, "-ERR")
	c.send(t, "TOP 1 -1")
	c.expect(t, "-ERR")
}

func TestUidlListsStableIDs(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[1] = []mailboat.Message{
		{ID: "msgA", Contents: "a"},
		{ID: "msgB", Contents: "b"},
	}
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user1")
	c.send(t, "UIDL")
	c.expect(t, "+OK")
	got := c.readMultiline(t)
	if len(got) != 2 || got[0] != "1 msgA" || got[1] != "2 msgB" {
		t.Fatalf("UIDL = %v", got)
	}
	c.send(t, "UIDL 2")
	line := c.expect(t, "+OK 2 msgB")
	_ = line
	c.send(t, "DELE 1")
	c.expect(t, "+OK")
	c.send(t, "UIDL")
	c.expect(t, "+OK")
	if got := c.readMultiline(t); len(got) != 1 || got[0] != "2 msgB" {
		t.Fatalf("UIDL after DELE = %v", got)
	}
	c.send(t, "UIDL 1")
	c.expect(t, "-ERR")
}

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

// TestMultilineReplyIsOneWrite: the status line of a multi-line reply
// waits in the buffer for the body and the terminator, so a reply that
// fits the buffer is one Write on the connection — one segment on
// loopback, not two — and the bytes on the wire are exactly RFC 1939's.
func TestMultilineReplyIsOneWrite(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[3] = []mailboat.Message{
		{ID: "msgA", Contents: "Subject: a\n\nfirst line\n.dot-stuffed\nlast"},
		{ID: "msgB", Contents: "Subject: b\n\nbody"},
	}
	server, peer := net.Pipe()
	conn := &countingConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(drop, 10).handle(conn)
		server.Close()
	}()
	c := &client{conn: peer, r: bufio.NewReader(peer)}
	defer peer.Close()
	auth(t, c, "user3")

	for _, tc := range []struct{ cmd, reply string }{
		{"LIST", "+OK scan listing follows\r\n1 40\r\n2 16\r\n.\r\n"},
		{"UIDL", "+OK unique-id listing follows\r\n1 msgA\r\n2 msgB\r\n.\r\n"},
		{"RETR 1", "+OK 40 octets\r\nSubject: a\r\n\r\nfirst line\r\n..dot-stuffed\r\nlast\r\n.\r\n"},
		{"TOP 2 0", "+OK top of message follows\r\nSubject: b\r\n\r\n.\r\n"},
	} {
		writes, wire := conn.sent()
		c.send(t, tc.cmd)
		c.expect(t, "+OK")
		c.readMultiline(t)
		after, all := conn.sent()
		if got := after - writes; got != 1 {
			t.Errorf("%s: reply took %d writes, want 1", tc.cmd, got)
		}
		if got := all[len(wire):]; got != tc.reply {
			t.Errorf("%s: wire bytes %q, want %q", tc.cmd, got, tc.reply)
		}
	}
	c.send(t, "QUIT")
	c.expect(t, "+OK")
	<-done
}
