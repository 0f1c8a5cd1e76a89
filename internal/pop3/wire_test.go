package pop3

import (
	"bufio"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/mailboat"
)

// TestUserNameNeverCrossesCommands: a command's arguments live in the
// reader's buffer, which the next command overwrites, so the name USER
// keeps for PASS must be a copy: a long command in between still opens
// the mailbox USER named.
func TestUserNameNeverCrossesCommands(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[3] = []mailboat.Message{{ID: "a", Contents: "x"}, {ID: "b", Contents: "y"}}
	addr := startServer(t, drop)
	c := dial(t, addr)
	c.expect(t, "+OK")
	c.send(t, "USER user3")
	c.expect(t, "+OK")
	c.send(t, "XJUNK "+strings.Repeat("user9", 600))
	c.expect(t, "-ERR unrecognized command")
	c.send(t, "PASS x")
	c.expect(t, "+OK maildrop has 2 messages")
	drop.mu.Lock()
	defer drop.mu.Unlock()
	if !drop.locked[3] {
		t.Fatal("PASS did not open mailbox 3")
	}
}

// TestLineTooLong: a command line that does not fit the reader's 4 KiB
// buffer is answered -ERR and ends the session (releasing the mailbox),
// instead of growing a buffer for as long as a peer keeps sending.
func TestLineTooLong(t *testing.T) {
	drop := newFakeDrop()
	addr := startServer(t, drop)
	c := dial(t, addr)
	auth(t, c, "user1")
	c.send(t, "NOOP "+strings.Repeat("z", 4096))
	c.expect(t, "-ERR line too long")
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("the session outlived a line too long")
	}
	// The session's deferred Unlock ran before its connection closed.
	drop.mu.Lock()
	defer drop.mu.Unlock()
	if drop.unlocks != 1 || drop.locked[1] {
		t.Fatal("mailbox lock not released after a line too long")
	}
}

// TestFrontEndAllocationBudget: once a session is open, UIDL, RETR,
// DELE (with the RSET that undoes it) and NOOP allocate nothing: lines
// are parsed in the reader's buffer and replies, numbers included, are
// written straight into the writer's.
func TestFrontEndAllocationBudget(t *testing.T) {
	drop := newFakeDrop()
	drop.mail[3] = []mailboat.Message{
		{ID: "msgA", Contents: "Subject: a\n\n" + strings.Repeat("a line of the body\n.stuffed\n", 40)},
		{ID: "msgB", Contents: "Subject: b\n\nbody"},
	}
	server, peer := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(drop, 10).handle(server)
		server.Close()
	}()
	defer func() { peer.Close(); <-done }()
	c := &client{conn: peer, r: bufio.NewReader(peer)}
	auth(t, c, "user3")

	// reply sends cmd and reads its reply: through the lone dot when
	// multi is set.
	reply := func(cmd []byte, multi bool) {
		if _, err := peer.Write(cmd); err != nil {
			t.Fatalf("send %q: %v", cmd, err)
		}
		for first := true; ; first = false {
			line, err := c.r.ReadSlice('\n')
			switch {
			case err != nil:
				t.Fatalf("%q: %v", cmd, err)
			case first && !strings.HasPrefix(string(line), "+OK"):
				t.Fatalf("%q: got %q", cmd, line)
			case !multi || string(line) == ".\r\n":
				return
			}
		}
	}
	var (
		uidl = []byte("UIDL\r\n")
		retr = []byte("RETR 1\r\n")
		dele = []byte("DELE 2\r\n")
		rset = []byte("RSET\r\n")
		noop = []byte("NOOP\r\n")
	)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"UIDL", func() { reply(uidl, true) }},
		{"RETR", func() { reply(retr, true) }},
		{"DELE+RSET", func() { reply(dele, false); reply(rset, false) }},
		{"NOOP", func() { reply(noop, false) }},
	} {
		if got := testing.AllocsPerRun(50, tc.run); got != 0 {
			t.Errorf("%s: %.1f allocs per command, want 0", tc.name, got)
		}
	}
	io.WriteString(peer, "QUIT\r\n")
	c.expect(t, "+OK")
}
