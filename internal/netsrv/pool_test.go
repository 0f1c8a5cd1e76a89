package netsrv

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestPooledBuffersNeverCrossSessions: a Conn goes back to the pool
// when its session ends, a panicking one too, and the session that takes
// it next sees nothing of the last one's: neither the input it left
// unread nor the reply it never flushed.
func TestPooledBuffersNeverCrossSessions(t *testing.T) {
	// One P: a Conn put back is the next one taken, unless the race
	// detector drops it (it drops a quarter of all Puts), hence rounds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type seen struct {
		c                 *Conn
		unflushed, unread int
		line              string
	}
	sessions := make(chan seen, 2)
	var srv *Server
	srv = New("", func(conn net.Conn) {
		c := srv.NewConn(conn)
		s := seen{c: c, unflushed: c.Buffered(), unread: c.r.Buffered()}
		line, _ := c.ReadLine()
		s.line = string(line)
		if s.line == "LEAK\r\n" {
			c.r.Peek(len("stale input\r\n")) // now unread, for certain
			c.WriteString("stale reply\r\n")
			sessions <- s
			panic("session A")
		}
		sessions <- s
		c.WriteString("fresh reply\r\n")
		c.Flush()
	}, new(Metrics))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// session sends input in one write and returns everything the server
	// wrote before it hung up.
	session := func(input string) string {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(conn, input); err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(conn)
		return string(out)
	}
	for round := 1; round <= 20; round++ {
		if out := session("LEAK\r\nstale input\r\n"); out != "" {
			t.Fatalf("session A's peer got %q, want nothing", out)
		}
		a := <-sessions
		if out := session("PING\r\n"); out != "fresh reply\r\n" {
			t.Fatalf("session B's peer got %q, want only its own reply", out)
		}
		b := <-sessions
		if b.unflushed != 0 || b.unread != 0 || b.line != "PING\r\n" {
			t.Fatalf("session B started with %d unflushed and %d unread bytes, then read %q", b.unflushed, b.unread, b.line)
		}
		if b.c == a.c {
			t.Logf("round %d: session B ran on session A's pooled Conn", round)
			return
		}
	}
	t.Fatal("no session ever reused a pooled Conn")
}
