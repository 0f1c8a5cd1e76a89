package netsrv

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// toy is a line protocol small enough to read at a glance: a greeting,
// then "ECHO x" answers x, PANIC panics, QUIT says bye and ends the
// session. exits counts the sessions whose defers ran.
type toy struct {
	srv     *Server
	metrics Metrics
	exits   atomic.Int32
	served  chan error // Serve's return value
}

func (p *toy) session(conn net.Conn) {
	defer p.exits.Add(1)
	c := p.srv.NewConn(conn)
	say := func(line string) bool {
		c.WriteString(line + "\r\n")
		return c.Flush() == nil
	}
	if !say("hello") {
		return
	}
	c.Commands(func(verb, arg string) bool {
		switch verb {
		case "PANIC":
			panic("toy exploded")
		case "QUIT":
			say("bye")
			return true
		}
		return !say(arg)
	})
}

// echoFrames is the frame server's shape: no greeting, no refusal line,
// no Conn — the session owns the raw connection.
func echoFrames(conn net.Conn) { io.Copy(conn, conn) }

const busy = "BUSY try again later"

// start builds a toy server, applies tune, and serves on loopback.
func start(t *testing.T, tune func(*toy)) (*toy, string) {
	t.Helper()
	p := &toy{
		metrics: NewMetrics(obs.NewRegistry(), "toy", "TOY connections refused.", []string{"ECHO", "QUIT"}),
		served:  make(chan error, 1),
	}
	p.srv = New(busy, p.session, &p.metrics)
	if tune != nil {
		tune(p)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { p.served <- p.srv.Serve(ln) }()
	t.Cleanup(func() { p.srv.Close() })
	return p, ln.Addr().String()
}

type peer struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return &peer{conn: conn, r: bufio.NewReader(conn)}
}

func (c *peer) send(t *testing.T, line string) {
	t.Helper()
	if _, err := io.WriteString(c.conn, line+"\r\n"); err != nil {
		t.Fatalf("send %q: %v", line, err)
	}
}

func (c *peer) expect(t *testing.T, want string) {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil || strings.TrimRight(line, "\r\n") != want {
		t.Fatalf("got %q, %v; want %q", line, err, want)
	}
}

// gone reports whether the server has hung up on c.
func (c *peer) gone() bool {
	_, err := c.r.ReadString('\n')
	return err != nil
}

// eventually polls cond; the events waited for here (a session
// goroutine retiring after its peer saw the close) have no channel.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// TestLifecycle is the one table for what the three front ends used to
// test (or not) separately: the cap and its refusal line, the read
// deadline, both halves of Shutdown, panic containment, Close before
// Serve, and sever-on-Close.
func TestLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tune  func(*toy)
		drive func(t *testing.T, p *toy, addr string)
	}{
		{"cap reached: refusal line, then capacity frees", func(p *toy) { p.srv.MaxConns = 1 }, func(t *testing.T, p *toy, addr string) {
			c1 := dial(t, addr)
			c1.expect(t, "hello")
			c2 := dial(t, addr)
			c2.expect(t, busy)
			if !c2.gone() {
				t.Fatal("refused connection left open")
			}
			c1.send(t, "QUIT")
			c1.expect(t, "bye")
			eventually(t, "capacity never freed after QUIT", func() bool {
				c := dial(t, addr)
				line, _ := c.r.ReadString('\n')
				return strings.HasPrefix(line, "hello")
			})
			if got := p.metrics.refused.Value(); got < 1 {
				t.Errorf("refused=%d, want at least the one seen", got)
			}
		}},
		{"stuck peer dropped at ReadTimeout", func(p *toy) { p.srv.ReadTimeout = 50 * time.Millisecond }, func(t *testing.T, p *toy, addr string) {
			c := dial(t, addr)
			c.expect(t, "hello")
			if !c.gone() {
				t.Fatal("server kept a silent connection past its read deadline")
			}
		}},
		{"commands are counted by verb, strangers as other", nil, func(t *testing.T, p *toy, addr string) {
			c := dial(t, addr)
			c.expect(t, "hello")
			c.send(t, "echo a")
			c.expect(t, "a")
			c.send(t, "XYZZY b")
			c.expect(t, "b")
			c.send(t, "QUIT")
			c.expect(t, "bye")
			eventually(t, "session never retired", func() bool { return p.metrics.active.Value() == 0 })
			m := p.metrics
			if m.accepted.Value() != 1 || m.commands["ECHO"].Value() != 1 || m.commands["other"].Value() != 1 ||
				m.commands["QUIT"].Value() != 1 || m.cmdTime.Count() != 3 {
				t.Errorf("accepted=%d ECHO=%d other=%d QUIT=%d timed=%d", m.accepted.Value(), m.commands["ECHO"].Value(),
					m.commands["other"].Value(), m.commands["QUIT"].Value(), m.cmdTime.Count())
			}
		}},
		{"Shutdown waits for a live session", nil, func(t *testing.T, p *toy, addr string) {
			c := dial(t, addr)
			c.expect(t, "hello")
			done := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				done <- p.srv.Shutdown(ctx)
			}()
			// The listener is closed at once, the session is not.
			eventually(t, "listener still accepting", func() bool {
				conn, err := net.Dial("tcp", addr)
				if err == nil {
					conn.Close()
				}
				return err != nil
			})
			c.send(t, "ECHO still here")
			c.expect(t, "still here")
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned %v with a session live", err)
			default:
			}
			c.send(t, "QUIT")
			c.expect(t, "bye")
			if err := <-done; err != nil {
				t.Fatalf("graceful shutdown: %v", err)
			}
			if err := <-p.served; err != nil {
				t.Fatalf("Serve after a deliberate stop: %v", err)
			}
		}},
		{"Shutdown severs on expiry and the session's defers run", nil, func(t *testing.T, p *toy, addr string) {
			c := dial(t, addr)
			c.expect(t, "hello")
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := p.srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("forced shutdown: %v", err)
			}
			// Shutdown returned, so the session has: its defer ran.
			if got := p.exits.Load(); got != 1 {
				t.Fatalf("%d sessions ran their defers, want 1", got)
			}
			if !c.gone() {
				t.Fatal("connection survived forced shutdown")
			}
		}},
		{"a panicking session costs one connection and is counted", nil, func(t *testing.T, p *toy, addr string) {
			c := dial(t, addr)
			c.expect(t, "hello")
			c.send(t, "PANIC")
			if !c.gone() {
				t.Fatal("panicked session kept its connection")
			}
			c2 := dial(t, addr)
			c2.expect(t, "hello")
			c2.send(t, "ECHO alive")
			c2.expect(t, "alive")
			if got := p.metrics.panics.Value(); got != 1 {
				t.Errorf("panics=%d, want 1", got)
			}
			if got := p.exits.Load(); got != 1 {
				t.Errorf("%d sessions ran their defers, want the panicked one", got)
			}
		}},
		// The front ends used to keep such a listener open and refuse
		// every connection on it forever.
		{"Close then Serve returns with the listener closed", func(p *toy) { p.srv.Close() }, func(t *testing.T, p *toy, addr string) {
			if err := <-p.served; err != nil {
				t.Fatalf("Serve after Close: %v", err)
			}
			if conn, err := net.Dial("tcp", addr); err == nil {
				conn.Close()
				t.Fatal("Serve after Close left the listener open")
			}
		}},
		{"sever on Close: a cancelled Shutdown silences a frame server", func(p *toy) {
			p.srv = New("", echoFrames, new(Metrics))
		}, func(t *testing.T, p *toy, addr string) {
			c := dial(t, addr)
			c.send(t, "frame")
			c.expect(t, "frame")
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := p.srv.Shutdown(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Shutdown with a cancelled context: %v", err)
			}
			c.conn.Write([]byte("after\r\n")) // may or may not fail; no reply may come
			if !c.gone() {
				t.Fatal("a connection accepted before Close still answers")
			}
			if err := <-p.served; err != nil {
				t.Fatalf("Serve after Close: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, addr := start(t, tc.tune)
			tc.drive(t, p, addr)
		})
	}
}
